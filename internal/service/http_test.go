package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/storage"
)

// httpFixture spins up the API over a fresh service.
func httpFixture(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(New(Config{Parallelism: 2, MaxConcurrent: 2})))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestHTTPRegisterQueryStats walks the whole API surface: register a
// generated dataset, list it, run cold and warm queries (the warm one
// must be a full cache hit), read the stats endpoint.
func TestHTTPRegisterQueryStats(t *testing.T) {
	srv := httpFixture(t)

	var info DatasetInfo
	resp := postJSON(t, srv.URL+"/v1/datasets",
		RegisterRequest{Name: "web", Shape: "star", Rows: 1200, Seed: 4}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	if info.Name != "web" || info.Relations != 7 || info.Fingerprint == 0 {
		t.Fatalf("bad register info %+v", info)
	}

	listResp, err := http.Get(srv.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list []DatasetInfo
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list) != 1 || list[0].Name != "web" {
		t.Fatalf("bad dataset list %+v", list)
	}

	query := Request{Dataset: "web", Strategy: "BVP+COM", FlatOutput: true}
	var cold, warm Result
	if resp := postJSON(t, srv.URL+"/v1/query", query, &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/query", query, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query status %d", resp.StatusCode)
	}
	// The cold query already finds the plan-time tables resident; neither
	// builds anything.
	if cold.Stats.CacheHits == 0 || cold.Stats.CacheMisses != 0 || warm.Stats.CacheHits != cold.Stats.CacheHits || warm.Stats.CacheMisses != 0 {
		t.Fatalf("cache counters wrong over HTTP: cold %+v warm %+v", cold.Stats, warm.Stats)
	}
	if warm.Stats.Checksum != cold.Stats.Checksum || warm.Stats.Checksum == 0 {
		t.Fatalf("checksums diverge over HTTP: %#x vs %#x", warm.Stats.Checksum, cold.Stats.Checksum)
	}

	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Queries != 2 || st.Datasets != 1 || st.Cache.Hits == 0 {
		t.Fatalf("bad service stats %+v", st)
	}
}

// TestHTTPErrors maps failure modes to statuses: bad shape and unknown
// dataset are 400s, duplicate registration is 409.
func TestHTTPErrors(t *testing.T) {
	srv := httpFixture(t)
	if resp := postJSON(t, srv.URL+"/v1/datasets", RegisterRequest{Name: "x", Shape: "dodecahedron"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shape status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/query", Request{Dataset: "ghost"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dataset status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/datasets", RegisterRequest{Name: "x", Shape: "star", Rows: 300}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/datasets", RegisterRequest{Name: "x", Shape: "star", Rows: 300}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register status %d", resp.StatusCode)
	}
	// A failed GET carries the envelope like a failed POST, and the
	// client must decode it the same way. This handler's own GETs never
	// fail, so a stand-in answers as a shedding hop in between would.
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeQueryError(w, shedErr(errors.New("draining"), 40*time.Millisecond))
	}))
	t.Cleanup(shedding.Close)
	_, err := NewHTTPRunner(shedding.URL).Datasets(context.Background())
	if Classify(err) != ClassShed || RetryAfterHint(err) != 40*time.Millisecond {
		t.Fatalf("GET answered 503 + shed envelope: client error %v (class %q, hint %v), want shed with the 40ms hint",
			err, Classify(err), RetryAfterHint(err))
	}
}

// TestHTTPBodyLimit: every POST endpoint caps its body; an oversize
// (here also well-formed) body is refused with the classified invalid
// envelope instead of being buffered.
func TestHTTPBodyLimit(t *testing.T) {
	srv := httpFixture(t)
	pad := strings.Repeat("x", maxRequestBytes)
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/query", Request{Dataset: pad}},
		{"/v1/mutate", MutateRequest{Dataset: pad}},
		{"/v1/datasets", RegisterRequest{Name: pad}},
	} {
		resp := postJSONBody(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: oversize body status %d, want 400", tc.path, resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Class != ClassInvalid || !strings.Contains(env.Error, "too large") {
			t.Errorf("%s: oversize body envelope %+v, want class invalid naming the limit", tc.path, env)
		}
	}
}

// TestHTTPBodyStrict: every POST endpoint takes exactly one JSON value
// naming only fields its request has; a misspelt field or trailing
// data is refused with the classified invalid envelope, not ignored,
// and so is a dataset directory whose manifest cannot be built.
func TestHTTPBodyStrict(t *testing.T) {
	srv := httpFixture(t)
	if resp := postJSON(t, srv.URL+"/v1/datasets", RegisterRequest{Name: "ds", Shape: "star", Rows: 100}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	badDir := t.TempDir()
	manifest := `{"nodes":[{"id":0,"name":"R1","parent":0,"file":"r1.csv"},{"id":1,"name":"R2","parent":0,"key":"k","fo":2,"file":"r2.csv"}]}`
	if err := os.WriteFile(filepath.Join(badDir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	dirBody, err := json.Marshal(RegisterRequest{Name: "bad", Dir: badDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body, want string
	}{
		{"/v1/query", `{"dataset":"ds","stratgy":"COM"}`, "unknown field"},
		{"/v1/mutate", `{"dataset":"ds","ops":[],"dryRun":true}`, "unknown field"},
		{"/v1/datasets", `{"name":"x","shape":"star","row":10}`, "unknown field"},
		{"/v1/query", `{"dataset":"ds"} {"dataset":"ds"}`, "trailing data"},
		{"/v1/query", `{"dataset":"ds","timeoutMillis":10000000000000}`, "timeoutMillis"},
		{"/v1/mutate", `{"dataset":"ds","ops":[]}]`, "trailing data"},
		{"/v1/datasets", `{"name":"x"}x`, "trailing data"},
		{"/v1/datasets", string(dirBody), "match probability"},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Class != ClassInvalid || !strings.Contains(env.Error, tc.want) {
			t.Errorf("%s %s: envelope %+v, want class invalid naming %q", tc.path, tc.body, env, tc.want)
		}
	}
}

// decodeEnvelope re-reads a non-200 response as the error envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) ErrorEnvelope {
	t.Helper()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not an error envelope: %v", err)
	}
	return env
}

// postJSONBody is postJSON but keeps the body readable for envelope
// decoding on any status.
func postJSONBody(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestHTTPErrorEnvelope: failures come back as the classified JSON
// envelope with the class-mapped status — 400 for invalid requests,
// 408 for a blown per-query deadline, 503 + Retry-After for shed load.
func TestHTTPErrorEnvelope(t *testing.T) {
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	if _, err := svc.Register(RegisterRequest{Name: "web", Shape: "star", Rows: 1200, Seed: 4}); err != nil {
		t.Fatal(err)
	}

	// Invalid: unknown dataset → 400, class invalid.
	resp := postJSONBody(t, srv.URL+"/v1/query", Request{Dataset: "ghost"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dataset status %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Class != ClassInvalid {
		t.Fatalf("unknown dataset class %q, want invalid", env.Class)
	}

	// Timeout: a 1ms budget with every probe chunk stretched cannot
	// finish → 408, class timeout — whether it ran out while the cold
	// plan measured or while the probe loop crawled.
	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteProbeChunk, Mode: faultinject.ModeDelay,
		Every: 1, Delay: 50 * time.Millisecond,
	})
	resp = postJSONBody(t, srv.URL+"/v1/query", Request{Dataset: "web", TimeoutMillis: 1})
	faultinject.Disable()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("deadline query status %d, want 408", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Class != ClassTimeout {
		t.Fatalf("deadline query class %q, want timeout", env.Class)
	}

	// Shed: a draining service → 503 with Retry-After and the hint
	// mirrored in the envelope.
	svc.StartDrain()
	resp = postJSONBody(t, srv.URL+"/v1/query", Request{Dataset: "web"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	env := decodeEnvelope(t, resp)
	if env.Class != ClassShed || env.RetryAfterMillis <= 0 {
		t.Fatalf("shed envelope %+v, want class shed with a retry hint", env)
	}
}

// TestDrainFinishesInFlight: StartDrain stops admission immediately
// but Drain waits for in-flight queries — the slow query admitted
// before the drain completes normally while new arrivals shed.
func TestDrainFinishesInFlight(t *testing.T) {
	ds := genDataset(t, 1500, 7)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteProbeChunk, Mode: faultinject.ModeDelay,
		Every: 1, Delay: time.Millisecond,
	})
	defer faultinject.Disable()

	started := make(chan struct{})
	inflight := make(chan error, 1)
	go func() {
		close(started)
		_, err := svc.Query(context.Background(), Request{Dataset: "ds", ChunkSize: 256})
		inflight <- err
	}()
	<-started
	// Wait for the admission itself (Queries counts admitted queries),
	// not a guessed delay: a query still planning or queueing when the
	// drain starts is (rightly) shed.
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Queries == 0; {
		if time.Now().After(deadline) {
			t.Fatal("query was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	svc.StartDrain()

	// New work is shed immediately.
	_, err := svc.Query(context.Background(), Request{Dataset: "ds"})
	if Classify(err) != ClassShed {
		t.Fatalf("query during drain: %v, want shed", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	if st := svc.Stats(); !st.Draining || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("post-drain stats %+v, want draining and idle", st)
	}
}

// TestHTTPLoadDirRegistration registers a dataset from a m2mdata
// directory written by storage.SaveDataset.
func TestHTTPLoadDirRegistration(t *testing.T) {
	srv := httpFixture(t)
	ds := genDataset(t, 600, 9)
	dir := t.TempDir()
	if err := storage.SaveDataset(ds, dir); err != nil {
		t.Fatal(err)
	}
	var info DatasetInfo
	if resp := postJSON(t, srv.URL+"/v1/datasets", RegisterRequest{Name: "disk", Dir: dir}, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("register-from-dir status %d", resp.StatusCode)
	}
	if info.Fingerprint != ds.Fingerprint() {
		t.Fatalf("loaded fingerprint %#x != source %#x", info.Fingerprint, ds.Fingerprint())
	}
	var res Result
	if resp := postJSON(t, srv.URL+"/v1/query", Request{Dataset: "disk"}, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
}
