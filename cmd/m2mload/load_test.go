package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
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

	report := runLoad(ctx, h, loadConfig{
		duration:  400 * time.Millisecond,
		clients:   8,
		templates: templates,
		seed:      31,
		mutateQPS: 50,
		targets:   writeTargets(regs),
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

// answering serves a scripted server: every registration is a 409 (an
// earlier run's datasets), every query fails with class, and /v1/stats
// is empty.
func answering(class service.Class) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/datasets":
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(service.ErrorEnvelope{Error: "exists", Class: service.ClassInvalid})
		case "/v1/query":
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(service.ErrorEnvelope{Error: string(class), Class: class})
		default:
			json.NewEncoder(w).Encode(service.Stats{})
		}
	})
}

// TestRun drives the command as a function. It fails exactly when a
// query failed internal or invalid, or the mix could not be registered;
// sheds and timeouts are the resilience layer working. A run against a
// real server prints the server's own latency beside the client's.
func TestRun(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	for _, tc := range []struct {
		name      string
		server    http.Handler // nil: nothing listens at -addr
		args      string
		code      int
		out, diag string // substrings of stdout and stderr
	}{
		{"real server", service.NewHandler(service.New(service.Config{})), "-clients 2 -rows 300", 0,
			"server latency (/v1/stats", ""},
		{"shed only", answering(service.ClassShed), "", 0, "invalid=0 internal=0", ""},
		{"internal errors", answering(service.ClassInternal), "", 1, "internal=", ""},
		{"invalid errors", answering(service.ClassInvalid), "", 1, "invalid=", ""},
		{"no server", nil, "", 1, "", "m2mload: registering load_snowflake32"},
		{"bad flag", nil, "-clients many", 2, "", `invalid value "many"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := gone.URL
			if tc.server != nil {
				srv := httptest.NewServer(tc.server)
				defer srv.Close()
				addr = srv.URL
			}
			args := append([]string{"-addr", addr, "-duration", "150ms"}, strings.Fields(tc.args)...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.diag) {
				t.Errorf("stdout %q / stderr %q lack %q / %q", stdout.String(), stderr.String(), tc.out, tc.diag)
			}
		})
	}
}

// TestWarmHitRateUnderWrites: a server under four closed-loop readers
// and a 15-commit/s writer for 6 s keeps its artifact cache warm
// through commit-time repair. The writer commits with no errors, the
// hit rate measured under the writes stays at or above 80 % (cold
// rebuilds after every commit measure about 50-60 %), and the server
// accounts both the commits and the repairs.
func TestWarmHitRateUnderWrites(t *testing.T) {
	svc := service.New(service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	var stdout, stderr bytes.Buffer
	args := strings.Fields("-duration 6s -clients 4 -rows 2000 -seed 1 -retries 1 -mutate-qps 15")
	if code := run(append(args, "-addr", srv.URL), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d under write load: %s\n%s", code, stderr.String(), stdout.String())
	}
	t.Logf("\n%s", stdout.String())
	if !regexp.MustCompile(`mutations: committed=[1-9][0-9]* errors=0`).MatchString(stdout.String()) {
		t.Error("the writer committed nothing or hit errors")
	}
	m := regexp.MustCompile(`hit-rate=([0-9.]+)%`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatal("no hit rate in the report")
	}
	if rate, _ := strconv.ParseFloat(m[1], 64); rate < 80 {
		t.Errorf("hit rate %.1f%% under writes: artifact repair is not keeping the cache warm", rate)
	}
	st, err := service.NewHTTPRunner(srv.URL).Stats(context.Background())
	if err != nil || st.Mutations < 1 || st.Repairs < 1 {
		t.Errorf("server stats: mutations=%d repairs=%d (err %v), want both at least 1", st.Mutations, st.Repairs, err)
	}
}
