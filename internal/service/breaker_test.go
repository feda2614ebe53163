package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/faultinject"
)

// fakeClock is a manually advanced clock for deterministic breaker
// tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(cfg BreakerConfig) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return newBreaker(cfg, clk.now), clk
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
	b, _ := testBreaker(BreakerConfig{MinSamples: 10, FailureRatio: 0.5, Cooldown: time.Second})

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
	b, clk := testBreaker(BreakerConfig{
		MinSamples: 4, FailureRatio: 0.5, Cooldown: time.Second, HalfOpenProbes: 2,
	})
	for i := 0; i < 4; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	mustShed(t, b)

	clk.advance(1100 * time.Millisecond)
	// Exactly HalfOpenProbes admitted; the next is shed.
	mustAllow(t, b)
	mustAllow(t, b)
	mustShed(t, b)
	if got := b.snapshot("ds").State; got != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
	b.done("")
	b.done("")

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
	b, clk := testBreaker(BreakerConfig{
		MinSamples: 4, FailureRatio: 0.5, Cooldown: time.Second, HalfOpenProbes: 2,
	})
	for i := 0; i < 4; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	clk.advance(1100 * time.Millisecond)
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
	b, clk := testBreaker(BreakerConfig{MinSamples: 4, FailureRatio: 0.5, Cooldown: time.Second})
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
	for i := 0; i < 4; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	clk.advance(1100 * time.Millisecond)
	mustAllow(t, b)
	b.done(ClassCanceled)
	if got := b.snapshot("ds").State; got != BreakerHalfOpen {
		t.Fatalf("state %v after canceled probe, want still half-open", got)
	}
	mustAllow(t, b) // slot was released
}

// TestBreakerWindowAges: failures age out of the sliding window, so a
// burst of old failures does not trip the breaker later.
func TestBreakerWindowAges(t *testing.T) {
	b, clk := testBreaker(BreakerConfig{
		Window: time.Second, Buckets: 4, MinSamples: 4, FailureRatio: 0.5,
	})
	for i := 0; i < 3; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	clk.advance(2 * time.Second) // all buckets age out
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
// cooldown a successful probe closes it again.
func TestBreakerOpensUnderInjectedFaults(t *testing.T) {
	ds := genDataset(t, 800, 3)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 1, Breaker: BreakerConfig{
		MinSamples: 4, FailureRatio: 0.5,
		Cooldown: 50 * time.Millisecond, HalfOpenProbes: 1,
	}})
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

	// Recovery: after the cooldown the half-open probe runs fault-free,
	// closing the breaker.
	time.Sleep(60 * time.Millisecond)
	if _, err := svc.Query(ctx, req); err != nil {
		t.Fatalf("post-cooldown probe failed: %v", err)
	}
	if got := svc.Stats().Breakers[0].State; got != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", got)
	}
}

// TestBreakerDisabled: a disabled breaker admits everything and
// records nothing.
func TestBreakerDisabled(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{Disabled: true})
	for i := 0; i < 100; i++ {
		mustAllow(t, b)
		b.done(ClassInternal)
	}
	if got := b.snapshot("ds").State; got != BreakerClosed {
		t.Fatalf("disabled breaker left closed state: %v", got)
	}
}

// TestBreakerSnapshotRace is the -race regression for the /v1/stats
// snapshot path: snapshots racing allow/done across every state
// transition must be data-race free and always observe a consistent
// (state, window, probe-counter) tuple. Uses the real clock — a tiny
// window keeps the ring advancing constantly under the hammering.
func TestBreakerSnapshotRace(t *testing.T) {
	b := newBreaker(BreakerConfig{
		Window: 10 * time.Millisecond, Buckets: 2, MinSamples: 2,
		FailureRatio: 0.5, Cooldown: time.Millisecond, HalfOpenProbes: 1,
	}, time.Now)

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
					if (i+w)%3 == 0 {
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
