package main

// Example runs the program under tier-1 and pins what it prints:
// counters, counts and checksums, no timings.
func Example() {
	main()
	// Output:
	// chosen strategy: STD, join order: R2 -> R3
	// predicted cost:  2.25 weighted probes per driver tuple
	//
	// uid  gid  (user row, membership row, channel row)
	//   1   10  (0, 0, 0)
	//   1   10  (0, 0, 1)
	//   1   20  (0, 1, 2)
	//   2   10  (1, 2, 0)
	//   2   10  (1, 2, 1)
	//   3   20  (2, 3, 2)
	//   3   30  (2, 4, 3)
	//
	// 7 tuples, 9 hash probes, 0 filter probes
}
