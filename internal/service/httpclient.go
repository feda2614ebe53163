package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTPRunner drives a remote m2mserve over its HTTP/JSON API. The load
// generator (cmd/m2mload) and the sharded serving tier's backend
// targets share this one client: classified error envelopes
// are decoded back into *QueryError, so failure classes — and the
// Retry-After hint — survive the wire and retry/failover policy keys
// on them exactly as it does in-process.
type HTTPRunner struct {
	base   string
	client http.Client
}

// NewHTTPRunner returns a runner for the m2mserve at base (e.g.
// "http://127.0.0.1:8080").
func NewHTTPRunner(base string) *HTTPRunner {
	return &HTTPRunner{base: strings.TrimRight(base, "/")}
}

// Base returns the server's base URL.
func (h *HTTPRunner) Base() string { return h.base }

// Query posts one query.
func (h *HTTPRunner) Query(ctx context.Context, req Request) (Result, error) {
	var res Result
	_, err := h.do(ctx, http.MethodPost, "/v1/query", req, &res)
	return res, err
}

// Mutate posts one mutation batch; the server commits it as the
// dataset's next snapshot.
func (h *HTTPRunner) Mutate(ctx context.Context, req MutateRequest) (MutateResult, error) {
	var res MutateResult
	_, err := h.do(ctx, http.MethodPost, "/v1/mutate", req, &res)
	return res, err
}

// Stats fetches the server's /v1/stats snapshot.
func (h *HTTPRunner) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	_, err := h.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Datasets fetches the server's catalog. The sharded tier uses it to
// verify a backend serves the same dataset content (by fingerprint)
// before trusting its shard results.
func (h *HTTPRunner) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	var out []DatasetInfo
	_, err := h.do(ctx, http.MethodGet, "/v1/datasets", nil, &out)
	return out, err
}

// Register posts a dataset registration and returns the HTTP status
// alongside the result, so callers can tolerate 409 Conflict when the
// dataset already exists (repeated runs against one server).
func (h *HTTPRunner) Register(ctx context.Context, req RegisterRequest) (DatasetInfo, int, error) {
	var info DatasetInfo
	status, err := h.do(ctx, http.MethodPost, "/v1/datasets", req, &info)
	return info, status, err
}

// do sends one request — in, when non-nil, as its JSON body — and
// decodes a 200 response into out, returning the HTTP status (0 when no
// response arrived). A non-200 response carrying the classified error
// envelope comes back as a *QueryError, so retry classification and the
// Retry-After hint survive the wire; transport failures (server
// unreachable, connection reset) come back unclassified — Classify maps
// them to ClassInternal, which is what replica failover treats as "this
// member is broken, try another".
func (h *HTTPRunner) do(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, h.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var env ErrorEnvelope
		if err := json.Unmarshal(msg, &env); err == nil && env.Class != "" {
			return resp.StatusCode, &QueryError{
				Class:      env.Class,
				RetryAfter: time.Duration(env.RetryAfterMillis) * time.Millisecond,
				Err:        fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, env.Error),
			}
		}
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, msg)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}
