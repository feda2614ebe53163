package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/faultinject"
)

// This file is the sharded half of the chaos suite: it arms the shard
// failpoint (service/shard-dispatch — at every gather dispatch, initial
// and retry alike, local or remote) in every mode against a scattering
// service under concurrent mixed-strategy traffic, and asserts the
// same invariants as the unsharded suite: no crash, no admission-slot
// leak, classified failures only, full-coverage survivors bit-identical
// to a fault-free unsharded baseline, and an uncorrupted artifact
// cache after disarm. Degraded results are additionally checked for a
// consistent (Coverage, FailedShards) pair.

// TestShardChaosFailpoints drives each (shard site, mode) pair with
// retries enabled: transient injected faults (Every: 3) are usually
// absorbed by the classified retry, so most queries succeed at full
// coverage and must be bit-identical.
func TestShardChaosFailpoints(t *testing.T) {
	ds := genDataset(t, 1500, 7)
	newSvc := func() *Service {
		// Breaker disabled for the same reason as TestChaosFailpoints: a
		// correctly opening breaker would shed the queries the isolation
		// invariants need; breaker behavior has its own tests.
		svc := newBreakerless(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20,
			Shard: ShardConfig{Shards: 3, Retries: 1}})
		if _, err := svc.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	// The fault-free reference is unsharded: scatter-gather claims bit-
	// identity to plain execution, so survivors are held to that bar.
	baseline := chaosBaseline(t, func() *Service {
		svc := newBreakerless(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20})
		if _, err := svc.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		return svc
	})
	ctx := context.Background()

	modes := []struct {
		name string
		mode faultinject.Mode
	}{
		{"error", faultinject.ModeError},
		{"panic", faultinject.ModePanic},
		{"delay", faultinject.ModeDelay},
	}
	for _, site := range []string{faultinject.SiteShardDispatch} {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/%s", site, m.name), func(t *testing.T) {
				svc := newSvc()
				faultinject.Enable(faultinject.Spec{
					Site: site, Mode: m.mode, Every: 3, Delay: time.Millisecond,
				})

				var wg sync.WaitGroup
				var mu sync.Mutex
				var failures []error
				survivors := 0
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, strat := range chaosStrategies {
							res, err := svc.Query(ctx, chaosRequest(strat))
							mu.Lock()
							if err != nil {
								failures = append(failures, err)
							} else {
								survivors++
								if res.Coverage != 1 || res.FailedShards != nil {
									t.Errorf("%s: full-coverage path returned degraded result %+v",
										strat, res)
								}
								if got := stripCache(res.Stats); !reflect.DeepEqual(got, baseline[strat]) {
									t.Errorf("%s survivor diverged:\nbase %+v\ngot  %+v",
										strat, baseline[strat], got)
								}
							}
							mu.Unlock()
						}
					}()
				}
				wg.Wait()

				stats := faultinject.Stats()[site]
				faultinject.Disable()
				if stats.Fires == 0 {
					t.Fatalf("failpoint %s never fired — the run proved nothing", site)
				}
				if survivors == 0 {
					t.Fatal("no query survived; retries should absorb Every:3 faults")
				}
				for _, err := range failures {
					cls := Classify(err)
					if cls == ClassInvalid {
						t.Errorf("injected fault surfaced as invalid request: %v", err)
					}
				}
				if st := svc.Stats(); st.Active != 0 || st.Queued != 0 {
					t.Fatalf("leaked admission state: active=%d queued=%d", st.Active, st.Queued)
				}

				// Cache integrity after disarm: every strategy fault-free and
				// bit-identical on whatever artifacts the chaos run left behind.
				for _, strat := range chaosStrategies {
					res, err := svc.Query(ctx, chaosRequest(strat))
					if err != nil {
						t.Fatalf("post-disarm %s: %v", strat, err)
					}
					if got := stripCache(res.Stats); !reflect.DeepEqual(got, baseline[strat]) {
						t.Errorf("post-disarm %s diverged:\nbase %+v\ngot  %+v",
							strat, baseline[strat], got)
					}
				}
			})
		}
	}
}

// TestShardChaosDegradedUnderPersistentFaults: with retries disabled
// and a persistent dispatch fault, MinCoverage queries come back
// degraded. The invariant pair: Coverage and FailedShards must agree
// (every shard is either covered or named missing — never silently
// absent), no admission slot leaks, and after disarm the same service
// serves full-coverage bit-identical answers again.
func TestShardChaosDegradedUnderPersistentFaults(t *testing.T) {
	ds := genDataset(t, 1500, 7)
	svc := newBreakerless(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20,
		Shard: ShardConfig{Shards: 4, Retries: -1}})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	plain := newBreakerless(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20})
	if _, err := plain.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := plain.Query(ctx, chaosRequest("COM"))
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteShardDispatch, Mode: faultinject.ModeError, Every: 2,
	})
	degraded, full := 0, 0
	for i := 0; i < 8; i++ {
		req := chaosRequest("COM")
		req.MinCoverage = 0.01
		res, err := svc.Query(ctx, req)
		if err != nil {
			// All four dispatches can draw even hit numbers; a classified
			// failure is legitimate, an unclassified one is not.
			if !IsQueryError(err) {
				t.Fatalf("unclassified failure: %v", err)
			}
			continue
		}
		if res.Coverage < 1 {
			degraded++
			if len(res.FailedShards) == 0 {
				t.Fatalf("degraded result (coverage %v) names no failed shards", res.Coverage)
			}
			// A missing shard can only remove tuples (possibly none, if
			// its driver rows produced no output); more would mean the
			// merge double-counted a survivor.
			if res.Stats.OutputTuples > base.Stats.OutputTuples {
				t.Fatalf("degraded result exceeds the full answer: %d vs %d tuples",
					res.Stats.OutputTuples, base.Stats.OutputTuples)
			}
		} else {
			full++
			if got, want := stripCache(res.Stats), stripCache(base.Stats); !reflect.DeepEqual(got, want) {
				t.Fatalf("full-coverage result diverged under faults:\n got %+v\nwant %+v", got, want)
			}
		}
	}
	stats := faultinject.Stats()[faultinject.SiteShardDispatch]
	faultinject.Disable()
	if stats.Fires == 0 {
		t.Fatal("dispatch failpoint never fired")
	}
	if degraded == 0 {
		t.Fatal("Every:2 dispatch faults with no retries must degrade some queries")
	}
	if st := svc.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("leaked admission state: active=%d queued=%d", st.Active, st.Queued)
	}
	if svc.Stats().Sharding.Degraded == 0 {
		t.Fatal("degraded counter not incremented")
	}

	// After disarm: full coverage, bit-identical.
	res, err := svc.Query(ctx, chaosRequest("COM"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Fatalf("post-disarm coverage %v", res.Coverage)
	}
	if got, want := stripCache(res.Stats), stripCache(base.Stats); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-disarm diverged:\n got %+v\nwant %+v", got, want)
	}
}
