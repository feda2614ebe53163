package exec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/faultinject"
)

// runOnce executes one query at the given strategy/parallelism.
func runOnce(t *testing.T, s cost.Strategy, par int) (Stats, error) {
	t.Helper()
	ds, order := cancelDataset(t)
	return Run(ds, Options{
		Strategy: s, Order: order, Ctx: context.Background(),
		Parallelism: par, ChunkSize: 512,
	})
}

// TestWorkerPanicBecomesError: a panic in a phase-2 worker is caught
// at the pool boundary and surfaces as a *PanicError carrying the
// injected value — the process survives and the error says where.
func TestWorkerPanicBecomesError(t *testing.T) {
	baseline, err := runOnce(t, cost.STD, 4)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteProbeChunk, Mode: faultinject.ModePanic, Every: 3,
	})
	_, err = runOnce(t, cost.STD, 4)
	faultinject.Disable()
	if err == nil {
		t.Fatal("query with an injected worker panic returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not wrap *PanicError", err)
	}
	if !faultinject.IsInjected(pe.Value) {
		t.Fatalf("PanicError value %v is not the injected fault", pe.Value)
	}

	// Shared state (none should exist) was not corrupted: a fault-free
	// rerun is bit-identical to the baseline.
	again, err := runOnce(t, cost.STD, 4)
	if err != nil {
		t.Fatalf("fault-free rerun failed after recovered panic: %v", err)
	}
	if !reflect.DeepEqual(again, baseline) {
		t.Fatalf("rerun diverged after recovered panic:\nbase %+v\nagain %+v", baseline, again)
	}
}

// TestPanicAtEveryBoundary: every guarded pool boundary — phase-1
// builds, the hash-table build poll, phase-2 probe workers, semi-join
// reduction — converts an injected panic into a failed query, at
// sequential and parallel worker counts.
func TestPanicAtEveryBoundary(t *testing.T) {
	cases := []struct {
		site  string
		strat cost.Strategy
	}{
		{faultinject.SiteBuildRelation, cost.STD},
		{faultinject.SiteBuildMorsel, cost.COM},
		{faultinject.SiteProbeChunk, cost.COM},
		{faultinject.SiteReduceChunk, cost.SJCOM},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			t.Run(tc.site, func(t *testing.T) {
				faultinject.Enable(faultinject.Spec{
					Site: tc.site, Mode: faultinject.ModePanic, Every: 1,
				})
				_, err := runOnce(t, tc.strat, par)
				faultinject.Disable()
				if err == nil {
					t.Fatalf("%s par=%d: injected panic returned nil error", tc.site, par)
				}
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("%s par=%d: error %v does not wrap *PanicError", tc.site, par, err)
				}
			})
		}
	}
}

// TestInjectedErrorFailsQuery: ModeError at an erroring site fails the
// query with the *Injected error preserved through the wrapping.
func TestInjectedErrorFailsQuery(t *testing.T) {
	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteProbeChunk, Mode: faultinject.ModeError, Every: 2,
	})
	defer faultinject.Disable()
	_, err := runOnce(t, cost.COM, 4)
	if err == nil {
		t.Fatal("injected error returned nil")
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
}
