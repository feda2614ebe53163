package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/service"
)

// TestRun drives the command as a function: a run whose context is
// already cancelled binds, drains at once and exits 0; a dataset or an
// address it cannot use fails it; a command line it cannot parse is a
// usage error.
func TestRun(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, tc := range []struct {
		name string
		args []string
		code int
		diag string // stderr substring
	}{
		{"drains on cancel", []string{"-addr", "127.0.0.1:0"}, 0, "drained, exiting"},
		{"missing dataset", []string{"-dataset", "x=" + filepath.Join(t.TempDir(), "absent")}, 1, "registering x"},
		{"address in use", []string{"-addr", taken.Addr().String()}, 1, "address already in use"},
		{"dataset without dir", []string{"-dataset", "x"}, 2, "want name=dir"},
		{"unknown flag", []string{"-port", "1"}, 2, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var stderr bytes.Buffer
			if code := run(ctx, tc.args, io.Discard, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.diag) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.diag)
			}
		})
	}
}

// TestDrainUnderLoad: cancelling the run's context, as SIGTERM does,
// midway through live traffic drains the server. It exits 0, logs the
// drain and its completion, and its final stats count no internal
// error: every query it answered during the drain was served or
// classified.
func TestDrainUnderLoad(t *testing.T) {
	srv := start(t)
	var code int
	t.Logf("clients saw %+v", drive(t, srv.url, 2*time.Second, 0, func() { code = srv.stop() }))
	if code != 0 {
		t.Errorf("exit %d after a drain, want 0", code)
	}
	log := srv.log.String()
	for _, want := range []string{"draining", "drained, exiting"} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
	if final := regexp.MustCompile(`final stats: .*`).FindString(log); !strings.Contains(final, "internal=0") {
		t.Errorf("final stats %q: want internal=0", final)
	}
}

// TestFailoverDegrades: a frontend scatters over two backends with
// shard retries off, and one backend dies midway through traffic that
// accepts 20 % coverage. The frontend keeps answering, degraded, off
// the survivor: the clients see degraded results and no internal or
// invalid error, and the frontend's /v1/stats, still served, counts
// the degraded gathers.
func TestFailoverDegrades(t *testing.T) {
	var backends []*httptest.Server
	regs, _ := service.StandardMix(2000, 1)
	for range 2 {
		svc := service.New(service.Config{})
		for _, reg := range regs {
			if _, err := svc.Register(reg); err != nil {
				t.Fatal(err)
			}
		}
		b := httptest.NewServer(service.NewHandler(svc))
		defer b.Close()
		backends = append(backends, b)
	}
	front := start(t, "-backends", backends[0].URL+","+backends[1].URL, "-shard-retries", "-1")

	tally := drive(t, front.url, 2*time.Second, 0.2, func() {
		backends[1].CloseClientConnections()
		backends[1].Close()
	})
	t.Logf("clients saw %+v", tally)
	if tally.degraded == 0 {
		t.Errorf("no degraded result after a backend died: %+v", tally)
	}
	if tally.errs[service.ClassInternal]+tally.errs[service.ClassInvalid] > 0 {
		t.Errorf("a lost backend broke queries instead of degrading them: %v", tally.errs)
	}
	st, err := service.NewHTTPRunner(front.url).Stats(context.Background())
	if err != nil {
		t.Fatalf("frontend stopped serving /v1/stats: %v", err)
	}
	if st.Sharding == nil || st.Sharding.Degraded < 1 {
		t.Errorf("frontend sharding stats show no degraded gather: %+v", st.Sharding)
	}
}

// TestObservability: with the slow-query log, ring tracing and pprof
// on, reads (none failing internal or invalid) plus a few commits
// leave /metrics and /v1/stats agreeing exactly on queries, mutations,
// cache hits and misses and the latency count; /v1/trace serves query
// spans, the slow-query log carries per-phase times, and /debug/pprof/
// answers.
func TestObservability(t *testing.T) {
	srv := start(t, "-slow-query-millis", "1", "-trace-ring", "32", "-pprof")
	h := service.NewHTTPRunner(srv.url)
	tally := drive(t, srv.url, time.Second, 0, func() {
		for row := range 5 {
			req := service.MutateRequest{Dataset: "star", Ops: []service.MutationSpec{{Op: "delete", Relation: "R1", Row: row}}}
			if _, err := h.Mutate(context.Background(), req); err != nil {
				t.Error(err)
			}
		}
	})

	if n := tally.errs[service.ClassInternal] + tally.errs[service.ClassInvalid]; n > 0 {
		t.Errorf("%d queries failed internal or invalid: %v", n, tally.errs)
	}
	// Traffic has stopped: both must describe the same totals.
	metrics := get(t, srv.url+"/metrics")
	st, err := h.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		metric string
		stat   int64
	}{
		{"m2m_queries_total", st.Queries},
		{"m2m_mutations_total", st.Mutations},
		{"m2m_cache_hits_total", st.Cache.Hits},
		{"m2m_cache_misses_total", st.Cache.Misses},
		{"m2m_query_duration_seconds_count", st.Latency.Count},
	} {
		if got := metricSum(metrics, c.metric); got != c.stat {
			t.Errorf("%s = %d, /v1/stats says %d", c.metric, got, c.stat)
		}
	}
	if st.Queries == 0 || st.Mutations == 0 || metricSum(metrics, "m2m_query_duration_seconds_bucket") == 0 {
		t.Errorf("queries=%d mutations=%d, or no latency histogram in /metrics", st.Queries, st.Mutations)
	}
	if !strings.Contains(get(t, srv.url+"/v1/trace?n=5"), `"name":"query"`) {
		t.Error("/v1/trace has no recorded query span")
	}
	if !strings.Contains(srv.log.String(), `"phaseMillis"`) {
		t.Error("no slow-query line with a phase breakdown")
	}
	get(t, srv.url+"/debug/pprof/")
}

// server is one run of the command on a free loopback port.
type server struct {
	url    string
	log    *syncBuffer
	cancel context.CancelFunc
	exit   chan int
	once   sync.Once
	code   int
}

// start runs the command with args on 127.0.0.1:0 and returns once it
// has logged the address it bound. The test's cleanup stops it.
func start(t *testing.T, args ...string) *server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{log: &syncBuffer{}, cancel: cancel, exit: make(chan int, 1)}
	go func() { s.exit <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, s.log) }()
	t.Cleanup(func() { s.stop() })
	bound := regexp.MustCompile(`listening on (\S+)`)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := bound.FindStringSubmatch(s.log.String()); m != nil {
			s.url = "http://" + m[1]
			return s
		}
	}
	t.Fatalf("m2mserve never listened:\n%s", s.log.String())
	return nil
}

// stop cancels the run, as SIGTERM does, and returns its exit status.
func (s *server) stop() int {
	s.once.Do(func() {
		s.cancel()
		s.code = <-s.exit
	})
	return s.code
}

// tally is what the clients of one drive saw.
type tally struct {
	ok, degraded int
	errs         map[service.Class]int
}

// drive registers the standard mix on base, then runs four closed-loop
// clients over its templates for d, accepting answers that cover at
// least minCoverage. midway runs once halfway through, beside the
// clients; drive returns when both are done.
func drive(t *testing.T, base string, d time.Duration, minCoverage float64, midway func()) tally {
	h := service.NewHTTPRunner(base)
	regs, templates := service.StandardMix(2000, 1)
	for _, reg := range regs {
		if _, status, err := h.Register(context.Background(), reg); err != nil && status != http.StatusConflict {
			t.Fatalf("registering %s: %v", reg.Name, err)
		}
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out = tally{errs: map[service.Class]int{}}
		end = time.Now().Add(d)
	)
	wg.Add(1)
	time.AfterFunc(d/2, func() { defer wg.Done(); midway() })
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; time.Now().Before(end); i++ {
				req := templates[i%len(templates)]
				req.MinCoverage = minCoverage
				res, err := h.Query(context.Background(), req)
				mu.Lock()
				switch {
				case err != nil:
					out.errs[service.Classify(err)]++
				case res.Coverage > 0 && res.Coverage < 1:
					out.degraded++
				default:
					out.ok++
				}
				mu.Unlock()
				if err != nil {
					time.Sleep(10 * time.Millisecond) // a drained server refuses at once
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// metricSum sums the samples of name, with or without labels, in a
// Prometheus text exposition.
func metricSum(exposition, name string) int64 {
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && (f[0] == name || strings.HasPrefix(f[0], name+"{")) {
			v, _ := strconv.ParseFloat(f[1], 64)
			sum += v
		}
	}
	return int64(sum)
}

// get returns the body of a GET that must answer 200.
func get(t *testing.T, url string) string {
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return string(body)
}

// syncBuffer is the log the server's goroutines write while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
