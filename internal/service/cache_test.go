package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"m2mjoin/internal/exec"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/telemetry"
)

func tkey(i int) artifactKey {
	return artifactKey{dataset: 1, rel: 1, keyCol: "k", maskFP: uint64(i)}
}

// TestCacheLRUOrder: get promotes, put evicts from the cold end.
func TestCacheLRUOrder(t *testing.T) {
	c := newArtifactCache(300)
	for i := 0; i < 3; i++ {
		c.put(&cacheEntry{key: tkey(i), bytes: 100})
	}
	// Touch 0 so 1 becomes the LRU victim.
	if c.get(tkey(0)) == nil {
		t.Fatal("resident entry missed")
	}
	c.put(&cacheEntry{key: tkey(3), bytes: 100})
	if c.get(tkey(1)) != nil {
		t.Fatal("LRU victim survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if c.get(tkey(i)) == nil {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if st := c.stats(); st.Bytes != 300 || st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("bad stats %+v", st)
	}
}

// TestCacheRejectsOversizedArtifact: an artifact larger than the whole
// budget must not be admitted (the budget is a hard invariant), and
// must not evict the resident set to make room for a failed insert.
func TestCacheRejectsOversizedArtifact(t *testing.T) {
	c := newArtifactCache(300)
	c.put(&cacheEntry{key: tkey(0), bytes: 200})
	c.put(&cacheEntry{key: tkey(1), bytes: 500})
	if c.get(tkey(1)) != nil {
		t.Fatal("oversized artifact admitted")
	}
	if c.get(tkey(0)) == nil {
		t.Fatal("resident entry evicted for a rejected insert")
	}
	if st := c.stats(); st.Bytes != 200 {
		t.Fatalf("bytes %d after rejected insert, want 200", st.Bytes)
	}
}

// TestCacheDuplicatePutKeepsResident: racing builders may offer the
// same key twice; the second offer must not double-charge the budget.
func TestCacheDuplicatePutKeepsResident(t *testing.T) {
	c := newArtifactCache(300)
	c.put(&cacheEntry{key: tkey(0), bytes: 100})
	c.put(&cacheEntry{key: tkey(0), bytes: 100})
	if st := c.stats(); st.Bytes != 100 || st.Entries != 1 {
		t.Fatalf("duplicate put double-charged: %+v", st)
	}
}

// TestSJBuildSideCached: an SJ query's phase 1 is kept per snapshot.
// Solo and on four local shards, a warm SJ query builds no reduced
// table (no build-side span) and reduces no driver mask (no semijoin
// span, the root's included), answering with the
// first query's Stats in every field but the cache counters. A commit
// makes the next query reduce once at the new version, with the
// oracle's answer; the commit that retires a version purges its build
// side; the cache's bytes are the resident charges; and a query whose
// deadline passes during the reduction leaves no build side behind.
func TestSJBuildSideCached(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			replica := genDataset(t, 3000, 23)
			svc := newBreakerless(Config{Parallelism: 4, MaxConcurrent: 2, Shard: ShardConfig{Shards: shards}})
			if _, err := svc.RegisterDataset("ds", genDataset(t, 3000, 23)); err != nil {
				t.Fatal(err)
			}
			e := svc.entry("ds")
			ctx := context.Background()
			req := Request{Dataset: "ds", Strategy: "SJ+COM", FlatOutput: true, Trace: true}
			// query answers req and counts its spans: build sides,
			// non-root reductions and root reductions.
			query := func(what string) (res Result, builds, nonRoot, root int) {
				t.Helper()
				res, err := svc.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				res.Trace.Each(func(_ int, n *telemetry.SpanNode) {
					switch {
					case n.Name == "build-side":
						builds++
					case n.Name == "semijoin" && n.Attrs["rel"] == int64(plan.Root):
						root++
					case n.Name == "semijoin":
						nonRoot++
					}
				})
				return res, builds, nonRoot, root
			}
			// resident lists the build sides in the cache by version
			// fingerprint and checks the cache's bytes against the
			// resident charges.
			resident := func() map[uint64]int {
				t.Helper()
				svc.cache.mu.Lock()
				defer svc.cache.mu.Unlock()
				got := map[uint64]int{}
				var charged int64
				for el := svc.cache.order.Front(); el != nil; el = el.Next() {
					ent := el.Value.(*cacheEntry)
					if ent.build == nil {
						charged += ent.table.MemoryBytes()
						continue
					}
					got[ent.key.dataset]++
					charged += ent.build.Stats().BytesCached
					if words := int64(ent.snap.Relation(plan.Root).NumRows()+63) / 64 * 8; ent.bytes != ent.build.Stats().BytesCached || ent.bytes <= words {
						t.Errorf("build side charged %d B, footprint %d B (tables plus %d B of driver mask)", ent.bytes, ent.build.Stats().BytesCached, words)
					}
				}
				if charged != svc.cache.bytes {
					t.Errorf("cache holds %d B, resident charges sum to %d B", svc.cache.bytes, charged)
				}
				return got
			}
			fp := func() uint64 { return e.head.Load().VersionFingerprint() }
			oracle := func(res Result, ds *storage.Dataset) {
				t.Helper()
				if n, sum := exec.Reference(ds); res.Stats.OutputTuples != n || res.Stats.Checksum != sum {
					t.Errorf("version %d: %d tuples (checksum %x), oracle %d (%x)", res.Version, res.Stats.OutputTuples, res.Stats.Checksum, n, sum)
				}
			}

			first, builds, nonRoot, root := query("first")
			if builds != 1 || nonRoot != len(replica.Tree.NonRoot()) || root != 1 {
				t.Fatalf("first query: %d build sides, %d non-root and %d root reductions; want 1, %d and 1",
					builds, nonRoot, root, len(replica.Tree.NonRoot()))
			}
			oracle(first, replica)
			v0 := fp()
			for i := 0; i < 2; i++ {
				warm, builds, nonRoot, root := query("warm")
				if builds != 0 || nonRoot != 0 || root != 0 {
					t.Errorf("warm query: %d build sides, %d non-root and %d root reductions; want none", builds, nonRoot, root)
				}
				if !reflect.DeepEqual(stripCache(warm.Stats), stripCache(first.Stats)) {
					t.Errorf("warm Stats\n %+v\nfirst\n %+v", warm.Stats, first.Stats)
				}
			}
			if got := resident(); got[v0] != 1 || len(got) != 1 {
				t.Errorf("resident build sides by version %v, want one at version 0", got)
			}

			// A commit: the next query reduces once at the new version.
			ops := testOps(replica, 0)
			if _, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops}); err != nil {
				t.Fatal(err)
			}
			replica = applyOps(t, replica, ops)
			for i, wantBuilds := range []int{1, 0} {
				post, builds, _, _ := query("post-commit")
				if post.Version != 1 || builds != wantBuilds {
					t.Errorf("post-commit query %d: version %d, %d build sides; want 1 and %d", i, post.Version, builds, wantBuilds)
				}
				oracle(post, replica)
			}
			v1 := fp()
			if got := resident(); got[v0] != 1 || got[v1] != 1 || len(got) != 2 {
				t.Errorf("resident build sides by version %v, want one each at versions 0 and 1", got)
			}

			// The second commit retires version 0, and its build side
			// leaves with the purge.
			ops = testOps(replica, 1)
			if _, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops}); err != nil {
				t.Fatal(err)
			}
			replica = applyOps(t, replica, ops)
			if got := resident(); got[v1] != 1 || len(got) != 1 {
				t.Errorf("after the purge: resident build sides by version %v, want one at version 1", got)
			}

			// A reduction outlived by its deadline offers nothing.
			faultinject.Enable(faultinject.Spec{Site: faultinject.SiteReduceChunk, Mode: faultinject.ModeDelay,
				Every: 1, Limit: 1, Delay: 50 * time.Millisecond})
			timed := req
			timed.TimeoutMillis = 10
			_, err := svc.Query(ctx, timed)
			faultinject.Disable()
			if Classify(err) != ClassTimeout {
				t.Fatalf("query timed out during its reduction: %v, want a timeout", err)
			}
			if got := resident(); got[fp()] != 0 {
				t.Errorf("a timed-out reduction left a build side: %v", got)
			}
			post, builds, _, _ := query("after the timeout")
			if builds != 1 {
				t.Errorf("query after the timed-out one: %d build sides, want 1", builds)
			}
			oracle(post, replica)
		})
	}
}
