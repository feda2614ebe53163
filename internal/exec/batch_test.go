package exec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// TestRunBatchMatchesSolo: RunBatch is a loop of Run, so every slot
// must hold the Stats its own Run produces, bit for bit — across mixed
// strategies, orders, chunk-size defaulting and per-query parallelism.
func TestRunBatchMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.5, 0.9, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 3000, Seed: 31})
	fwd := plan.Order(tr.NonRoot())
	alt := append(plan.Order(nil), fwd...)
	// Swapping two sibling leaves keeps precedence: in a snowflake the
	// last two order entries are leaves of different branches.
	alt[len(alt)-1], alt[len(alt)-2] = alt[len(alt)-2], alt[len(alt)-1]

	optsList := []Options{
		{Strategy: cost.STD, Order: fwd, FlatOutput: true, ChunkSize: 512},
		{Strategy: cost.COM, Order: alt, ChunkSize: 512},
		{Strategy: cost.BVPSTD, Order: fwd, FlatOutput: true, ChunkSize: 512, Parallelism: 8},
		{Strategy: cost.BVPCOM, Order: fwd, ChunkSize: 512, Parallelism: 2},
	}
	want := make([]Stats, len(optsList))
	for i, o := range optsList {
		st, err := Run(ds, o)
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		if st.OutputTuples == 0 {
			t.Fatalf("solo %d: degenerate test, no output", i)
		}
		want[i] = st
	}
	got, errs := RunBatch(ds, optsList)
	for i := range optsList {
		if errs[i] != nil {
			t.Fatalf("batch slot %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("slot %d: RunBatch stats diverge from Run:\n got %+v\nwant %+v",
				i, got[i], want[i])
		}
	}
}

// TestRunBatchMemberCancellation: cancelling ONE query of a batch must
// surface the cancellation sentinel for that query only — the others
// finish and stay bit-identical to Run. The cancel fires from inside
// the victim's own CollectOutput callback, i.e. in the middle of its
// chunk loop.
func TestRunBatchMemberCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tr := plan.Star(4, plan.UniformStats(rng, 0.6, 0.9, 1, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 4000, Seed: 41})
	order := plan.Order(tr.NonRoot())

	for _, par := range []int{1, 4} {
		surv := Options{Strategy: cost.COM, Order: order, ChunkSize: 128, Parallelism: par}
		survWant, err := Run(ds, surv)
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var emitted atomic.Int64
		victim := Options{
			Strategy: cost.STD, Order: order, FlatOutput: true,
			ChunkSize: 128, Parallelism: par, Ctx: ctx,
			CollectOutput: func(rows []int32) {
				if emitted.Add(1) == 50 {
					cancel()
				}
			},
		}
		got, errs := RunBatch(ds, []Options{victim, surv})
		if !errors.Is(errs[0], context.Canceled) {
			t.Fatalf("par=%d: victim err = %v, want context.Canceled", par, errs[0])
		}
		if errs[1] != nil {
			t.Fatalf("par=%d: survivor err = %v", par, errs[1])
		}
		if !reflect.DeepEqual(got[1], survWant) {
			t.Errorf("par=%d: survivor stats perturbed by sibling cancellation:\n got %+v\nwant %+v",
				par, got[1], survWant)
		}
	}
}
