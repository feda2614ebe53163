package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/service"
)

// TestLoadOverHTTP runs the driver the way every caller does — over the
// wire — against a real handler with fewer admission slots than
// clients: the standard mix registered through the API (twice: the
// second pass is a repeated run and must ride over the 409s), a short
// burst of reads beside a background writer, and the server-side
// latency count. The standard mix alone never misses — planning leaves
// every unselected table resident — so the burst adds a template whose
// selection shapes a table of its own.
func TestLoadOverHTTP(t *testing.T) {
	svc := service.New(service.Config{Parallelism: 2, MaxConcurrent: 2})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	ctx := context.Background()
	h := service.NewHTTPRunner(srv.URL)

	regs, templates := service.StandardMix(1200, 31)
	for pass := 0; pass < 2; pass++ {
		if err := registerMix(ctx, h, regs); err != nil {
			t.Fatalf("registration pass %d: %v", pass, err)
		}
	}
	if got := len(svc.Datasets()); got != len(regs) {
		t.Fatalf("catalog holds %d datasets after registering %d twice", got, len(regs))
	}
	tree, err := plan.ShapeByName(regs[0].Shape, plan.FixedStats(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	templates = append(templates, service.Request{Dataset: regs[0].Name, Strategy: "COM",
		Selections: []service.SelectionSpec{{Relation: tree.Name(1), Column: "id", Value: 3}}})
	targets, err := writeTargets(regs)
	if err != nil {
		t.Fatal(err)
	}

	report := runLoad(ctx, h, loadConfig{
		duration:  400 * time.Millisecond,
		clients:   8,
		templates: templates,
		seed:      31,
		mutateQPS: 50,
		targets:   targets,
	})
	t.Logf("\n%v", report)
	if report.queries == 0 {
		t.Fatal("load run issued no queries")
	}
	if report.errors != 0 {
		t.Fatalf("load run hit %d workload errors: %v", report.errors, report.errorsByClass)
	}
	if report.cacheHits == 0 || report.cacheMisses == 0 {
		t.Fatalf("hits=%d misses=%d: burst is not exercising both", report.cacheHits, report.cacheMisses)
	}
	if report.mutations == 0 || report.mutationErrors != 0 {
		t.Fatalf("writer committed %d batches with %d errors", report.mutations, report.mutationErrors)
	}
	if report.outputTuples == 0 {
		t.Fatal("no output tuples across the whole run")
	}
	// Every query the clients saw succeed was counted in the server's
	// latency (which also holds the ones the run deadline cut off).
	if st, err := h.Stats(ctx); err != nil || st.Latency.Count < report.queries {
		t.Fatalf("server latency counts %d queries (err %v), fewer than the run's %d successful queries",
			st.Latency.Count, err, report.queries)
	}
}

// TestQueryWithRetry scripts a server's answers to one query: retryable
// failures are re-issued within the budget after at least the server's
// hint (capped at the query timeout; the ±20% jitter leaves 0.8 of
// it), non-retryable ones are not, and the counter counts re-issues.
func TestQueryWithRetry(t *testing.T) {
	shed := func(hint time.Duration) service.ErrorEnvelope {
		return service.ErrorEnvelope{Error: "shed", Class: service.ClassShed, RetryAfterMillis: hint.Milliseconds()}
	}
	ok := service.ErrorEnvelope{}
	for _, tc := range []struct {
		name         string
		script       []service.ErrorEnvelope // one answer per attempt; ok = 200
		maxRetries   int
		queryTimeout time.Duration
		wantAttempts int
		wantClass    service.Class // "" = success
		minGap       time.Duration // between attempts 1 and 2
		maxTotal     time.Duration // 0 = unchecked
	}{
		{name: "shed then ok waits out the hint", script: []service.ErrorEnvelope{shed(80 * time.Millisecond), ok},
			maxRetries: 2, wantAttempts: 2, minGap: 64 * time.Millisecond},
		{name: "hint capped at the query timeout", script: []service.ErrorEnvelope{shed(time.Minute), ok},
			maxRetries: 2, queryTimeout: 50 * time.Millisecond, wantAttempts: 2,
			minGap: 40 * time.Millisecond, maxTotal: 10 * time.Second},
		{name: "budget spent", script: []service.ErrorEnvelope{shed(0), shed(0), ok},
			maxRetries: 1, wantAttempts: 2, wantClass: service.ClassShed},
		{name: "no budget", script: []service.ErrorEnvelope{shed(0), ok},
			maxRetries: 0, wantAttempts: 1, wantClass: service.ClassShed},
		{name: "invalid is final", script: []service.ErrorEnvelope{{Error: "bad", Class: service.ClassInvalid}, ok},
			maxRetries: 3, wantAttempts: 1, wantClass: service.ClassInvalid},
		{name: "internal is final", script: []service.ErrorEnvelope{{Error: "boom", Class: service.ClassInternal}, ok},
			maxRetries: 3, wantAttempts: 1, wantClass: service.ClassInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var arrivals []time.Time
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				answer := tc.script[len(arrivals)]
				arrivals = append(arrivals, time.Now())
				mu.Unlock()
				if answer.Class == "" {
					json.NewEncoder(w).Encode(service.Result{Dataset: "ds"})
					return
				}
				// Any non-200 will do: the client keys on the envelope's
				// class, not on the status.
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(answer)
			}))
			defer srv.Close()

			var retries int64
			start := time.Now()
			_, err := queryWithRetry(context.Background(), service.NewHTTPRunner(srv.URL),
				service.Request{Dataset: "ds"},
				loadConfig{maxRetries: tc.maxRetries, queryTimeout: tc.queryTimeout},
				rand.New(rand.NewSource(1)), &retries)
			total := time.Since(start)

			if got := service.Classify(err); got != tc.wantClass {
				t.Errorf("outcome class %q (%v), want %q", got, err, tc.wantClass)
			}
			if len(arrivals) != tc.wantAttempts || retries != int64(tc.wantAttempts-1) {
				t.Fatalf("%d attempts, retry counter %d; want %d attempts and %d re-issues",
					len(arrivals), retries, tc.wantAttempts, tc.wantAttempts-1)
			}
			if tc.minGap > 0 {
				if gap := arrivals[1].Sub(arrivals[0]); gap < tc.minGap {
					t.Errorf("re-issued after %v, want at least %v", gap, tc.minGap)
				}
			}
			if tc.maxTotal > 0 && total > tc.maxTotal {
				t.Errorf("took %v: the hint was not capped at the %v query timeout", total, tc.queryTimeout)
			}
		})
	}
}
