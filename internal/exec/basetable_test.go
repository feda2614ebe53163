package exec

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/telemetry"
	"m2mjoin/internal/workload"
)

// tableStore is a map-backed Artifacts provider for hash tables: what a
// run offers, a later run is served.
type tableStore struct {
	mu     sync.Mutex
	tables map[plan.NodeID]*hashtable.Table
}

func newTableStore() *tableStore {
	return &tableStore{tables: make(map[plan.NodeID]*hashtable.Table)}
}

func (a *tableStore) Table(id plan.NodeID) *hashtable.Table {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tables[id]
}

func (a *tableStore) PutTable(id plan.NodeID, t *hashtable.Table) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tables[id] = t
}

// tracedBuilds runs opts through run under a trace of its own and
// returns the number of hash tables the run built, read from that
// trace: the build-relation and semijoin spans of non-root relations
// that the provider did not serve (no cached attribute).
func tracedBuilds(run func(Options) (Stats, error), opts Options) (Stats, int64, error) {
	opts.Trace, opts.TraceParent = telemetry.NewTrace(nil), telemetry.NoParent
	st, err := run(opts)
	var n int64
	opts.Trace.Finish().Each(func(_ int, sp *telemetry.SpanNode) {
		if (sp.Name == "build-relation" || sp.Name == "semijoin") && sp.Attrs["rel"] != 0 && sp.Attrs["cached"] == 0 {
			n++
		}
	})
	return st, n, err
}

func stripProvider(s Stats) Stats {
	s.CacheHits, s.CacheMisses, s.BytesCached = 0, 0, 0
	return s
}

// TestSJLeafTablesFromProvider: the SJ strategies take the tables of
// the relations they do not reduce — the childless ones — from the
// provider. A first run offers exactly those; a second run is served
// all of them and builds only its reduced tables; every other field of
// Stats is what a provider-less run reports, unsharded and at 4 shards
// (whose merge still counts the build-side reductions once).
func TestSJLeafTablesFromProvider(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.6, 0.9, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 2500, Seed: 17})
	var leaves, inner int64
	for _, id := range tr.NonRoot() {
		if len(tr.Children(id)) == 0 {
			leaves++
		} else {
			inner++
		}
	}
	shards, err := shard.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []cost.Strategy{cost.SJSTD, cost.SJCOM} {
		opts := Options{Strategy: s, Order: plan.Order(tr.NonRoot()), FlatOutput: true, ChunkSize: 256, Parallelism: 2}
		run := func(opts Options) (Stats, error) { return Run(ds, opts) }
		bare, n, err := tracedBuilds(run, opts)
		if err != nil || n != leaves+inner {
			t.Fatalf("%v provider-less: %d builds (want %d), err %v", s, n, leaves+inner, err)
		}
		if bare.CacheHits != 0 || bare.CacheMisses != 0 || bare.OutputTuples == 0 {
			t.Fatalf("%v provider-less run is degenerate or reports provider traffic: %+v", s, bare)
		}

		store := newTableStore()
		opts.Artifacts = store
		first, err := Run(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first.CacheHits != 0 || first.CacheMisses != leaves || int64(len(store.tables)) != leaves {
			t.Fatalf("%v first run: hits=%d misses=%d, %d tables offered; want 0/%d/%d",
				s, first.CacheHits, first.CacheMisses, len(store.tables), leaves, leaves)
		}
		for id := range store.tables {
			if len(tr.Children(id)) != 0 {
				t.Fatalf("%v offered the reduced table of relation %d", s, id)
			}
		}

		second, n, err := tracedBuilds(run, opts)
		if err != nil || n != inner {
			t.Fatalf("%v second run: %d builds (want %d: the reduced tables only), err %v", s, n, inner, err)
		}
		if second.CacheHits != leaves || second.CacheMisses != 0 {
			t.Fatalf("%v second run: hits=%d misses=%d, want %d/0", s, second.CacheHits, second.CacheMisses, leaves)
		}
		for name, st := range map[string]Stats{"first": first, "second": second} {
			if !reflect.DeepEqual(stripProvider(st), bare) {
				t.Fatalf("%v %s run differs from the provider-less run:\n got %+v\nwant %+v", s, name, st, bare)
			}
		}

		merged, n, err := tracedBuilds(func(opts Options) (Stats, error) { return RunSharded(shards, opts) }, opts)
		if err != nil || n != 4*inner {
			t.Fatalf("%v 4 shards: %d builds (want %d), err %v", s, n, 4*inner, err)
		}
		if merged.CacheHits != 4*leaves || merged.CacheMisses != 0 {
			t.Fatalf("%v 4 shards: hits=%d misses=%d, want %d/0", s, merged.CacheHits, merged.CacheMisses, 4*leaves)
		}
		if merged.BuildSemiJoinProbes == 0 || !reflect.DeepEqual(stripProvider(merged), bare) {
			t.Fatalf("%v 4-shard merge differs from the unsharded provider-less run:\n got %+v\nwant %+v", s, merged, bare)
		}
	}
}

// TestUnselectedTablesKeepVersionedShape: on a snapshot with tombstones,
// a selection on one relation must not change the shape of the others'
// tables — an unselected relation is offered to the provider in the
// versioned shape its cache key promises, whatever else the query
// selects.
func TestUnselectedTablesKeepVersionedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ds := selectableDataset(rng, 800)
	snap := mutateRandomly(t, ds, rng, 60, false).Dataset
	for _, id := range snap.Tree.NonRoot() {
		if snap.Live(id) == nil {
			t.Fatalf("relation %d lost no rows; the test needs tombstones everywhere", id)
		}
	}
	store := newTableStore()
	_, err := Run(snap, Options{
		Strategy: cost.STD, Order: plan.Order(snap.Tree.NonRoot()), FlatOutput: true,
		Selections: []Selection{{Rel: 3, Column: "cat", Value: 1}},
		Artifacts:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []plan.NodeID{1, 2} {
		want := hashtable.BuildVersioned(snap.Relation(id), snap.KeyColumn(id),
			snap.BaseRows(id), snap.BaseLive(id), snap.Live(id), 1, nil)
		if store.tables[id].Checksum() != want.Checksum() {
			t.Fatalf("unselected relation %d was offered in a selection shape", id)
		}
	}
}

// TestProviderDifferentialOverCommits: across a three-commit
// append/delete chain, every strategy must report the same Stats —
// provider counters aside — whether it runs without a provider, offers
// its builds to an empty one, or is served tables carried forward from
// the previous version by ApplyDelta (the serving layer's repair), and
// all three must equal the oracle. A BVP strategy's filters travel
// inside those tables, so every carried table is also held to the
// filter of a cold build of its snapshot, word for word: one differing
// bit would move FilterProbes or HashProbes for some key column, and
// fails here for any.
func TestProviderDifferentialOverCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	snap := selectableDataset(rng, 600)
	nonRoot := snap.Tree.NonRoot()
	order := plan.Order(nonRoot)

	// carried holds the provider a long-lived cache would present at
	// each version: v0's builds, then their repairs.
	carried := newTableStore()
	if _, err := Run(snap, Options{Strategy: cost.BVPCOM, Order: order, Artifacts: carried}); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		v := mutateRandomly(t, snap, rng, 40, false)
		snap = v.Dataset
		for _, d := range v.Deltas {
			if d.Rel == plan.Root {
				continue
			}
			carried.tables[d.Rel] = carried.tables[d.Rel].ApplyDelta(snap.Relation(d.Rel), snap.KeyColumn(d.Rel),
				hashtable.DeltaSpec{
					BaseRows: snap.BaseRows(d.Rel), BaseLive: snap.BaseLive(d.Rel), Live: snap.Live(d.Rel),
					AppendedFrom: d.AppendedFrom, Deleted: d.Deleted, Compacted: d.Compacted,
				}, 1, nil)
		}
		wantCount, wantSum := Reference(snap)
		if wantCount == 0 {
			t.Fatalf("v%d: empty join result proves nothing", v.Dataset.Version())
		}
		for _, s := range cost.AllStrategies {
			opts := Options{Strategy: s, Order: order, FlatOutput: true, ChunkSize: 128, Parallelism: 2}
			bare, err := Run(snap, opts)
			if err != nil {
				t.Fatal(err)
			}
			if bare.OutputTuples != wantCount || bare.Checksum != wantSum {
				t.Fatalf("v%d %v: %d tuples checksum %#x, oracle %d %#x",
					v.Dataset.Version(), s, bare.OutputTuples, bare.Checksum, wantCount, wantSum)
			}
			shared := int64(len(nonRoot))
			if s == cost.SJSTD || s == cost.SJCOM {
				shared = 0
				for _, id := range nonRoot {
					if len(snap.Tree.Children(id)) == 0 {
						shared++
					}
				}
			}
			for _, tc := range []struct {
				name         string
				store        *tableStore
				hits, misses int64
			}{{"cold provider", newTableStore(), 0, shared}, {"warm provider", carried, shared, 0}} {
				opts.Artifacts = tc.store
				got, err := Run(snap, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.CacheHits != tc.hits || got.CacheMisses != tc.misses {
					t.Fatalf("v%d %v %s: hits=%d misses=%d, want %d/%d (tables only)",
						v.Dataset.Version(), s, tc.name, got.CacheHits, got.CacheMisses, tc.hits, tc.misses)
				}
				if !reflect.DeepEqual(stripProvider(got), bare) {
					t.Fatalf("v%d %v %s differs from the provider-less run:\n got %+v\nwant %+v", v.Dataset.Version(), s, tc.name, got, bare)
				}
			}
		}
		for _, id := range nonRoot {
			cold := hashtable.BuildVersioned(snap.Relation(id), snap.KeyColumn(id),
				snap.BaseRows(id), snap.BaseLive(id), snap.Live(id), 1, nil)
			got, want := bitvector.FromTable(carried.tables[id]), bitvector.FromTable(cold)
			if !slices.Equal(got.Words(), want.Words()) || got.WordShift() != want.WordShift() {
				t.Fatalf("v%d relation %d: carried table's filter differs from the cold derivation", v.Dataset.Version(), id)
			}
		}
	}
}
