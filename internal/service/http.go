package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// This file is the HTTP/JSON face of the service, shared by
// cmd/m2mserve and the tests. Three resources:
//
//	GET  /v1/datasets        list the catalog
//	POST /v1/datasets        register a dataset (load a m2mdata
//	                         directory, or generate a synthetic one)
//	POST /v1/query           run a query (Request -> Result)
//	POST /v1/mutate          commit a mutation batch as the dataset's
//	                         next snapshot (MutateRequest -> MutateResult)
//	GET  /v1/stats           service + cache counters
//	GET  /v1/trace           recent query traces, newest first (?n=
//	                         caps the count)
//	GET  /metrics            the metrics registry in Prometheus text
//	                         exposition format
//
// Request bodies and responses are JSON; bodies are capped at
// maxRequestBytes. Query execution is bounded by the HTTP request
// context, so a disconnected client cancels its query through the
// executor's cooperative cancellation.

// maxRequestBytes caps a POST body: far above any legitimate query,
// registration or mutation batch, small enough that a hostile client
// cannot make the decoder buffer without bound.
const maxRequestBytes = 8 << 20

// decodeBody decodes r's size-capped JSON body into v. The body must be
// exactly one JSON value naming only fields v has: a misspelt field is
// an error, not a silently ignored option, and so is anything after the
// value. On failure — malformed or oversize alike — it writes the
// classified invalid envelope (400) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s body: %w", what, err))
	}
	return err == nil
}

// NewHandler returns the service's HTTP API.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Datasets())
	})
	mux.HandleFunc("POST /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeBody(w, r, "register", &req) {
			return
		}
		info, err := s.Register(req)
		switch {
		case errors.Is(err, ErrDatasetExists):
			writeError(w, http.StatusConflict, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusOK, info)
		}
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !decodeBody(w, r, "query", &req) {
			return
		}
		res, err := s.Query(r.Context(), req)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/mutate", func(w http.ResponseWriter, r *http.Request) {
		var req MutateRequest
		if !decodeBody(w, r, "mutate", &req) {
			return
		}
		res, err := s.Mutate(r.Context(), req)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace count %q", q))
				return
			}
			n = v
		}
		writeJSON(w, http.StatusOK, s.Traces(n))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Registry().WritePrometheus(w)
	})
	return mux
}

// StatusClientClosedRequest is the nginx-convention status for "the
// client went away before the response": there is no standard code
// for a canceled request, and 499 is what every proxy dashboard
// already buckets separately from real 4xx/5xx.
const StatusClientClosedRequest = 499

// ErrorEnvelope is the JSON body of every non-200 query response: the
// message, the failure class, and (for shed load) the server's
// jittered retry hint. m2mload's HTTP runner decodes it to reconstruct
// the typed error client-side, so retry classification survives the
// wire.
type ErrorEnvelope struct {
	Error string `json:"error"`
	Class Class  `json:"class,omitempty"`
	// RetryAfterMillis mirrors the Retry-After header at millisecond
	// precision (the header only speaks whole seconds).
	RetryAfterMillis int64 `json:"retryAfterMillis,omitempty"`
}

// classStatus maps a failure class onto its HTTP status.
func classStatus(c Class) int {
	switch c {
	case ClassInvalid:
		return http.StatusBadRequest
	case ClassTimeout:
		return http.StatusRequestTimeout
	case ClassShed:
		return http.StatusServiceUnavailable
	case ClassCanceled:
		return StatusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// writeQueryError renders a classified query failure: the class picks
// the status (400 invalid, 408 timeout, 503 shed, 499 canceled, 500
// internal), shed responses carry Retry-After, and the body is the
// error envelope.
func writeQueryError(w http.ResponseWriter, err error) {
	cls := Classify(err)
	env := ErrorEnvelope{Error: err.Error(), Class: cls}
	if ra := RetryAfterHint(err); ra > 0 {
		env.RetryAfterMillis = ra.Milliseconds()
		// Retry-After speaks whole seconds; round up so the client
		// never retries before the hint.
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(ra.Seconds()))))
	}
	writeJSON(w, classStatus(cls), env)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: err.Error(), Class: ClassInvalid})
}
