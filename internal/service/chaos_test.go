package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/exec"
	"m2mjoin/internal/faultinject"
)

// This file is the chaos suite: it arms every failpoint in the catalog
// in every mode and asserts the resilience invariants — no fault
// crashes the process, no fault leaks an admission slot, no fault
// corrupts the artifact cache, every failure surfaces with the right
// class, and every query that survives is bit-identical to a
// fault-free run.

var chaosStrategies = []string{"STD", "COM", "BVP+STD", "BVP+COM", "SJ+STD", "SJ+COM"}

const chaosPar = 2

func chaosRequest(strategy string) Request {
	return Request{Dataset: "ds", Strategy: strategy, FlatOutput: true, Parallelism: chaosPar}
}

// newBreakerless is New with the circuit breakers off, for tests whose
// injected faults a correctly opening breaker would turn into sheds.
func newBreakerless(cfg Config) *Service {
	svc := New(cfg)
	svc.breakerOff = true
	return svc
}

// chaosBaseline runs every strategy fault-free on a fresh service and
// returns the per-strategy reference stats.
func chaosBaseline(t *testing.T, newSvc func() *Service) map[string]exec.Stats {
	t.Helper()
	svc := newSvc()
	base := make(map[string]exec.Stats, len(chaosStrategies))
	for _, s := range chaosStrategies {
		res, err := svc.Query(context.Background(), chaosRequest(s))
		if err != nil {
			t.Fatalf("baseline %s: %v", s, err)
		}
		if res.Stats.Checksum == 0 || res.Stats.OutputTuples == 0 {
			t.Fatalf("baseline %s: degenerate query proves nothing", s)
		}
		base[s] = stripCache(res.Stats)
	}
	return base
}

// TestChaosFailpoints arms each (site, mode) pair in turn and drives
// concurrent mixed-strategy traffic through it.
func TestChaosFailpoints(t *testing.T) {
	ds := genDataset(t, 1500, 7)
	newSvc := func() *Service {
		// The breaker is disabled here on purpose: this test's subject is
		// the failpoints' isolation invariants, and a breaker correctly
		// opening under injected faults would shed the later queries the
		// invariants need (the breaker has its own tests, including
		// TestBreakerOpensUnderInjectedFaults).
		svc := newBreakerless(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20})
		if _, err := svc.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	baseline := chaosBaseline(t, newSvc)
	ctx := context.Background()

	modes := []struct {
		name string
		mode faultinject.Mode
	}{
		{"error", faultinject.ModeError},
		{"panic", faultinject.ModePanic},
		{"delay", faultinject.ModeDelay},
	}
	for _, site := range faultinject.Sites() {
		if site == faultinject.SiteShardDispatch {
			// service/shard-dispatch never fires on an unsharded service;
			// the sharded chaos suite (shard_chaos_test.go) arms it against
			// a scattering service with the same invariants.
			continue
		}
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/%s", site, m.name), func(t *testing.T) {
				svc := newSvc()
				faultinject.Enable(faultinject.Spec{
					Site: site, Mode: m.mode, Every: 3, Delay: time.Millisecond,
				})

				var wg sync.WaitGroup
				var mu sync.Mutex
				var failures []error
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, s := range chaosStrategies {
							res, err := svc.Query(ctx, chaosRequest(s))
							if err != nil {
								mu.Lock()
								failures = append(failures, err)
								mu.Unlock()
								continue
							}
							// Survivor invariant: bit-identical to fault-free.
							if got := stripCache(res.Stats); !reflect.DeepEqual(got, baseline[s]) {
								t.Errorf("%s survivor diverged under faults:\nbase %+v\ngot  %+v",
									s, baseline[s], got)
							}
						}
					}()
				}
				wg.Wait()
				fired := faultinject.Stats()[site].Fires
				faultinject.Disable()
				if fired == 0 {
					t.Fatalf("failpoint %s never fired — the run proved nothing", site)
				}

				// Failure classification: delay faults never fail a query;
				// an admission error is shed load; everything else is an
				// internal engine failure.
				for _, err := range failures {
					cls := Classify(err)
					switch {
					case m.mode == faultinject.ModeDelay:
						t.Errorf("delay fault failed a query: %v", err)
					case site == faultinject.SiteAdmit && m.mode == faultinject.ModeError:
						if cls != ClassShed {
							t.Errorf("admission fault classified %s, want shed: %v", cls, err)
						}
					default:
						if cls != ClassInternal {
							t.Errorf("engine fault classified %s, want internal: %v", cls, err)
						}
					}
				}

				// No admission slot leaks: everything returned, so the
				// service must be fully idle.
				if st := svc.Stats(); st.Active != 0 || st.Queued != 0 {
					t.Fatalf("leaked admission state: active=%d queued=%d", st.Active, st.Queued)
				}

				// No cache corruption: with faults disarmed, every strategy
				// must still produce the fault-free bits on this service —
				// whatever mix of artifacts the faulted runs cached.
				for _, s := range chaosStrategies {
					res, err := svc.Query(ctx, chaosRequest(s))
					if err != nil {
						t.Fatalf("%s failed after disarm: %v", s, err)
					}
					if got := stripCache(res.Stats); !reflect.DeepEqual(got, baseline[s]) {
						t.Fatalf("%s diverged after disarm (corrupted cache?):\nbase %+v\ngot  %+v",
							s, baseline[s], got)
					}
				}
			})
		}
	}
}

// TestChaosProbabilisticSweep drives all strategies through a
// low-probability error fault at every site simultaneously — the
// "everything is a little broken" regime — and checks the same
// invariants in aggregate.
func TestChaosProbabilisticSweep(t *testing.T) {
	ds := genDataset(t, 1500, 7)
	newSvc := func() *Service {
		s := newBreakerless(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20})
		if _, err := s.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		return s
	}
	svc := newSvc()
	baseline := chaosBaseline(t, newSvc)

	specs := make([]faultinject.Spec, 0, len(faultinject.Sites()))
	for _, site := range faultinject.Sites() {
		specs = append(specs, faultinject.Spec{
			Site: site, Mode: faultinject.ModeError, Prob: 0.05, Seed: 99,
		})
	}
	faultinject.Enable(specs...)

	ctx := context.Background()
	var survivors, failed int
	for round := 0; round < 4; round++ {
		for _, s := range chaosStrategies {
			res, err := svc.Query(ctx, chaosRequest(s))
			if err != nil {
				failed++
				continue
			}
			survivors++
			if got := stripCache(res.Stats); !reflect.DeepEqual(got, baseline[s]) {
				t.Errorf("%s survivor diverged:\nbase %+v\ngot  %+v", s, baseline[s], got)
			}
		}
	}
	faultinject.Disable()
	if survivors == 0 {
		t.Fatal("no query survived p=0.05 faults; expected mostly survivors")
	}
	if st := svc.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("leaked admission state: active=%d queued=%d", st.Active, st.Queued)
	}
	t.Logf("sweep: %d survivors, %d failed", survivors, failed)
}

// TestCancelRacingCacheMissLeavesCacheClean: cancelling a query while
// it is mid-build (a cache miss in flight) must never leave a partial
// artifact behind — artifacts are inserted only after a complete
// build. A delay failpoint stretches the build so the cancellation
// reliably lands inside it; afterwards, concurrent warm queries must
// be bit-identical to the fault-free baseline.
func TestCancelRacingCacheMissLeavesCacheClean(t *testing.T) {
	ds := genDataset(t, 3000, 11)
	svc := New(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	req := chaosRequest("BVP+COM") // tables and filters: most artifact kinds

	baseSvc := New(Config{Parallelism: 4, MaxConcurrent: 2, CacheBytes: 64 << 20})
	if _, err := baseSvc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	baseRes, err := baseSvc.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	baseline := stripCache(baseRes.Stats)

	// Stretch every build morsel so cancellation lands mid-build.
	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteBuildMorsel, Mode: faultinject.ModeDelay,
		Every: 1, Delay: 2 * time.Millisecond,
	})
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := svc.Query(ctx, req)
			done <- err
		}()
		time.Sleep(time.Duration(i) * 500 * time.Microsecond)
		cancel()
		<-done // success or cancellation — both fine; the invariant is below
	}
	faultinject.Disable()

	// Two concurrent queries on whatever the races left cached: both
	// must succeed with fault-free bits.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svc.Query(context.Background(), req)
			if err != nil {
				t.Errorf("post-race query failed: %v", err)
				return
			}
			if got := stripCache(res.Stats); !reflect.DeepEqual(got, baseline) {
				t.Errorf("post-race query diverged (partial artifact?):\nbase %+v\ngot  %+v",
					baseline, got)
			}
		}()
	}
	wg.Wait()
	if st := svc.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("leaked admission state: active=%d queued=%d", st.Active, st.Queued)
	}
}
