package main

// Example runs the program under tier-1 and pins what it prints:
// counters, counts and checksums, no timings.
func Example() {
	main()
	// Output:
	// random graph: 3000 nodes, 30000 edges
	//
	// counting directed triangles (spanning tree + residual):
	//   STD      hash probes 330586   2-paths expanded 0        triangles 1044 checksum 0x569e71321af2ed28
	//   COM      hash probes 330586   2-paths expanded 3012058  triangles 1044 checksum 0x569e71321af2ed28
	//   BVP+COM  hash probes 330432   2-paths expanded 3012058  triangles 1044 checksum 0x569e71321af2ed28
	//   SJ+COM   hash probes 330432   2-paths expanded 3012058  triangles 1044 checksum 0x569e71321af2ed28
	//
	// Every strategy agrees on the triangle count and the result checksum; the
	// factorized variants avoid re-probing the shared-prefix 2-paths.
}
