package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m2mjoin/internal/faultinject"
)

// fakeClock is a manually advanced clock for deterministic breaker
// tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker() (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return newBreaker(false, clk.now), clk
}

// trip fails breakerMinSamples queries in a row, which opens b.
func trip(t *testing.T, b *breaker) {
	t.Helper()
	for i := 0; i < breakerMinSamples; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	if got := b.snapshot("ds").State; got != BreakerOpen {
		t.Fatalf("state %v after %d failures, want open", got, breakerMinSamples)
	}
}

// mustAllow / mustShed assert one allow() outcome.
func mustAllow(t *testing.T, b *breaker) {
	t.Helper()
	if err := b.allow(); err != nil {
		t.Fatalf("allow() = %v, want admitted", err)
	}
}

func mustShed(t *testing.T, b *breaker) *QueryError {
	t.Helper()
	err := b.allow()
	if err == nil {
		t.Fatal("allow() admitted, want shed")
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Class != ClassShed {
		t.Fatalf("allow() = %v, want ClassShed QueryError", err)
	}
	return qe
}

// TestBreakerOpensOnFailureRatio: enough failures in the window open
// the breaker; while open, queries shed with a Retry-After hint.
func TestBreakerOpensOnFailureRatio(t *testing.T) {
	b, _ := testBreaker()

	// 5 successes, then failures until the ratio trips at >= 50% of
	// >= 10 samples.
	for i := 0; i < 5; i++ {
		mustAllow(t, b)
		b.done("")
	}
	for i := 0; i < 4; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	if got := b.snapshot("ds").State; got != BreakerClosed {
		t.Fatalf("state %v after 9 samples (4 failures), want closed", got)
	}
	mustAllow(t, b)
	b.done(ClassTimeout) // 10 samples, 5 failures: trips

	if got := b.snapshot("ds").State; got != BreakerOpen {
		t.Fatalf("state %v, want open", got)
	}
	qe := mustShed(t, b)
	if qe.RetryAfter <= 0 {
		t.Fatalf("open breaker shed without a retry hint: %+v", qe)
	}
}

// TestBreakerHalfOpenRecovery: after the cooldown, a bounded number of
// probes are admitted; enough successes close the breaker with a clean
// window.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, clk := testBreaker()
	trip(t, b)
	mustShed(t, b)

	clk.advance(breakerCooldown + 100*time.Millisecond)
	// Exactly breakerProbes admitted; the next is shed.
	for i := 0; i < breakerProbes; i++ {
		mustAllow(t, b)
	}
	mustShed(t, b)
	if got := b.snapshot("ds").State; got != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
	for i := 0; i < breakerProbes; i++ {
		b.done("")
	}

	snap := b.snapshot("ds")
	if snap.State != BreakerClosed {
		t.Fatalf("state %v after successful probes, want closed", snap.State)
	}
	if snap.WindowFailures != 0 {
		t.Fatalf("window not cleared on close: %+v", snap)
	}
}

// TestBreakerHalfOpenFailureReopens: one failed probe re-opens.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := testBreaker()
	trip(t, b)
	clk.advance(breakerCooldown + 100*time.Millisecond)
	mustAllow(t, b)
	b.done(ClassTimeout)
	if got := b.snapshot("ds").State; got != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", got)
	}
	if opens := b.snapshot("ds").Opens; opens != 2 {
		t.Fatalf("opens = %d, want 2", opens)
	}
}

// TestBreakerIgnoresShedsAndCancels: shed and canceled outcomes affect
// neither the window nor half-open probe verdicts — the breaker cannot
// latch itself open on its own rejections.
func TestBreakerIgnoresShedsAndCancels(t *testing.T) {
	b, clk := testBreaker()
	for i := 0; i < 100; i++ {
		mustAllow(t, b)
		b.done(ClassShed)
		mustAllow(t, b)
		b.done(ClassCanceled)
	}
	snap := b.snapshot("ds")
	if snap.State != BreakerClosed || snap.WindowOK != 0 || snap.WindowFailures != 0 {
		t.Fatalf("ignored outcomes leaked into the window: %+v", snap)
	}

	// A shed outcome in half-open releases the probe slot without
	// closing or re-opening.
	trip(t, b)
	clk.advance(breakerCooldown + 100*time.Millisecond)
	mustAllow(t, b)
	b.done(ClassCanceled)
	if got := b.snapshot("ds").State; got != BreakerHalfOpen {
		t.Fatalf("state %v after canceled probe, want still half-open", got)
	}
	mustAllow(t, b) // slot was released
}

// TestBreakerWindowAges: failures age out of the sliding window, so a
// burst of old failures does not trip the breaker later — one more
// failure than the burst would trip it if they had not.
func TestBreakerWindowAges(t *testing.T) {
	b, clk := testBreaker()
	for i := 0; i < breakerMinSamples-1; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	clk.advance(2 * breakerWindow) // all buckets age out
	mustAllow(t, b)
	b.done(ClassInternal)
	snap := b.snapshot("ds")
	if snap.State != BreakerClosed {
		t.Fatalf("stale failures tripped the breaker: %+v", snap)
	}
	if snap.WindowFailures != 1 {
		t.Fatalf("window failures = %d, want 1 (rest aged out)", snap.WindowFailures)
	}
}

// TestBreakerOpensUnderInjectedFaults: the full service path — a
// dataset whose every query fails on an injected engine fault trips
// its breaker, later queries are shed with a retry hint, and after the
// cooldown successful probes close it again. The service runs on a
// fake clock, which the breaker reads.
func TestBreakerOpensUnderInjectedFaults(t *testing.T) {
	ds := genDataset(t, 800, 3)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 1})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	svc.now = clk.now
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Dataset: "ds", Strategy: "COM", FlatOutput: true, Parallelism: 2}

	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteProbeChunk, Mode: faultinject.ModeError, Every: 1,
	})
	var sawShed *QueryError
	for i := 0; i < 20 && sawShed == nil; i++ {
		_, err := svc.Query(ctx, req)
		if err == nil {
			faultinject.Disable()
			t.Fatal("query succeeded with an every-hit fault armed")
		}
		var qe *QueryError
		if errors.As(err, &qe) && qe.Class == ClassShed {
			sawShed = qe
		}
	}
	faultinject.Disable()
	if sawShed == nil {
		t.Fatal("breaker never opened under sustained engine faults")
	}
	if sawShed.RetryAfter <= 0 {
		t.Fatalf("breaker shed without a retry hint: %+v", sawShed)
	}
	st := svc.Stats()
	if len(st.Breakers) != 1 || st.Breakers[0].State != BreakerOpen {
		t.Fatalf("stats do not show the open breaker: %+v", st.Breakers)
	}
	if st.Errors.Shed == 0 || st.Errors.Internal == 0 {
		t.Fatalf("error counters missed the failures: %+v", st.Errors)
	}

	// Recovery: after the cooldown the half-open probes run fault-free,
	// closing the breaker.
	clk.advance(breakerCooldown)
	for i := 0; i < breakerProbes; i++ {
		if got := svc.Stats().Breakers[0].State; got == BreakerClosed {
			t.Fatalf("breaker closed after %d of %d probes", i, breakerProbes)
		}
		if _, err := svc.Query(ctx, req); err != nil {
			t.Fatalf("post-cooldown probe %d failed: %v", i, err)
		}
	}
	if got := svc.Stats().Breakers[0].State; got != BreakerClosed {
		t.Fatalf("breaker %v after successful probes, want closed", got)
	}
}

// TestBreakerDisabled: with the service's breaker switch off, the
// dataset breaker and every (shard, target) breaker admit everything
// and record nothing.
func TestBreakerDisabled(t *testing.T) {
	svc := newBreakerless(Config{Shard: ShardConfig{Shards: 2}})
	if _, err := svc.RegisterDataset("ds", genDataset(t, 400, 3)); err != nil {
		t.Fatal(err)
	}
	e := svc.entry("ds")
	set, err := e.shardSetFor(svc, 2)
	if err != nil {
		t.Fatal(err)
	}
	breakers := []*breaker{e.breaker}
	for _, perTarget := range set.breakers {
		breakers = append(breakers, perTarget...)
	}
	for _, b := range breakers {
		for i := 0; i < 100; i++ {
			mustAllow(t, b)
			b.done(ClassInternal)
		}
		if snap := b.snapshot("ds"); snap.State != BreakerClosed || snap.WindowFailures != 0 {
			t.Fatalf("disabled breaker recorded its failures: %+v", snap)
		}
	}
}

// TestBreakerSnapshotRace is the -race regression for the /v1/stats
// snapshot path: snapshots racing allow/done across every state
// transition must be data-race free and always observe a consistent
// (state, window, probe-counter) tuple. Every clock read moves 100ms,
// so under the hammering the ring ages and the cooldown runs out
// constantly, and two failures in three keep tripping the breaker.
func TestBreakerSnapshotRace(t *testing.T) {
	base := time.Unix(1000, 0)
	var tick atomic.Int64
	b := newBreaker(false, func() time.Time {
		return base.Add(time.Duration(tick.Add(1)) * 100 * time.Millisecond)
	})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := b.allow(); err == nil {
					cls := Class("")
					if (i+w)%3 != 0 {
						cls = ClassInternal
					}
					b.done(cls)
				}
			}
		}(w)
	}
	deadline := time.After(100 * time.Millisecond)
	for {
		stop := false
		select {
		case <-deadline:
			stop = true
		default:
		}
		snap := b.snapshot("race")
		if snap.WindowOK < 0 || snap.WindowFailures < 0 || snap.ProbesInFlight < 0 {
			t.Fatalf("inconsistent snapshot: %+v", snap)
		}
		switch snap.State {
		case BreakerClosed, BreakerOpen, BreakerHalfOpen:
		default:
			t.Fatalf("snapshot saw impossible state %q", snap.State)
		}
		if stop {
			break
		}
	}
	close(done)
	wg.Wait()
}
