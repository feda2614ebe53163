// Webservice: the paper's expensive-probe scenario (Section 2.1) —
// a join operator backed by an external API call (a web service, an
// LLM, or an expensive UDF) whose per-probe cost dwarfs a local hash
// lookup — served repeatedly through the query service and its shared
// build-artifact cache (internal/service).
//
// The query enriches orders with customer records fetched from a
// remote CRM:
//
//	SELECT * FROM customers c, orders o, items i, crm_profile p
//	WHERE c.cid = o.cid AND o.oid = i.oid AND c.cid = p.cid
//
// crm_profile is the external call (cost 50x a hash probe). Two
// effects stack for a serving deployment:
//
//  1. per query, factorized execution (COM) probes the CRM once per
//     surviving customer instead of once per (order x item) tuple;
//  2. across queries, the artifact cache rebuilds zero hash tables
//     after the first request — the repeated-query traffic a
//     single-shot CLI cannot express.
package main

import (
	"context"
	"fmt"
	"log"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/service"
	"m2mjoin/internal/workload"
)

func main() {
	tree := plan.NewTree("customers")
	orders := tree.AddChild(plan.Root, plan.EdgeStats{M: 0.7, Fo: 4}, "orders")
	_ = tree.AddChild(orders, plan.EdgeStats{M: 0.9, Fo: 5}, "items")
	crm := tree.AddChild(plan.Root, plan.EdgeStats{M: 0.95, Fo: 1}, "crm_profile")

	fmt.Println("generating 10k customers, ~28k orders, ~126k items...")
	ds := workload.Generate(tree, workload.Config{DriverRows: 10000, Seed: 3})

	svc := service.New(service.Config{CacheBytes: 64 << 20})
	info, err := svc.RegisterDataset("crm", ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered dataset %q: %d relations, %d rows, fingerprint %#x\n",
		info.Name, info.Relations, info.TotalRows, info.Fingerprint)

	// The CRM probe costs ~50 hash probes (a network round trip), so
	// the number of probes into crm_profile is the bill.
	const crmCost = 50
	ctx := context.Background()

	fmt.Println("\nrepeated traffic through the artifact cache (COM):")
	for i := 0; i < 3; i++ {
		res, err := svc.Query(ctx, service.Request{Dataset: "crm", Strategy: "COM"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  query %d: tables served from the cache=%d built by the run=%d  hash probes %d  results %d\n",
			i+1, res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.HashProbes, res.Stats.OutputTuples)
	}

	fmt.Println("\nCRM calls made by each execution model (same cached tables):")
	for _, strat := range []string{"STD", "COM"} {
		res, err := svc.Query(ctx, service.Request{Dataset: "crm", Strategy: strat})
		if err != nil {
			log.Fatal(err)
		}
		calls := res.Stats.PerRelationProbes[crm]
		fmt.Printf("  %-4s %8d CRM calls  (~%d cost units)\n", strat, calls, calls*crmCost)
	}

	fmt.Println("\nSTD must call the CRM up front, once per customer: deferring it")
	fmt.Println("behind the fanout joins would re-call it once per (order x item)")
	fmt.Println("tuple. COM defers it behind the selective joins and still calls it")
	fmt.Println("only once per surviving customer — with per-call pricing, the")
	fmt.Println("factorized model wins on every order. The serving layer stacks the")
	fmt.Println("second amortization: after the first request, phase 1 disappears")
	fmt.Println("from the latency path entirely.")
}
