package main

// Example runs the program under tier-1 and pins what it prints:
// counters, counts and checksums, no timings.
func Example() {
	main()
	// Output:
	// generating 10k customers, ~28k orders, ~126k items...
	// registered dataset "crm": 4 relations, 174010 rows, fingerprint 0x17850296ad85445b
	//
	// repeated traffic through the artifact cache (COM):
	//   query 1: tables served from the cache=3 built by the run=0  hash probes 43616  results 120375
	//   query 2: tables served from the cache=3 built by the run=0  hash probes 43616  results 120375
	//   query 3: tables served from the cache=3 built by the run=0  hash probes 43616  results 120375
	//
	// CRM calls made by each execution model (same cached tables):
	//   STD     10000 CRM calls  (~500000 cost units)
	//   COM      6992 CRM calls  (~349600 cost units)
	//
	// STD must call the CRM up front, once per customer: deferring it
	// behind the fanout joins would re-call it once per (order x item)
	// tuple. COM defers it behind the selective joins and still calls it
	// only once per surviving customer — with per-call pricing, the
	// factorized model wins on every order. The serving layer stacks the
	// second amortization: after the first request, phase 1 disappears
	// from the latency path entirely.
}
