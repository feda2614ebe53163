package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// This file defines the service's typed error model. Every failure a
// query can hit is assigned a Class, which is what the HTTP layer maps
// to a status code, what the load generator's retry policy keys on,
// and what the error-breakdown report counts. The classes deliberately
// mirror the operational questions: was the request malformed
// (invalid), did it run out of time (timeout), did the service refuse
// it to protect itself (shed), did the client walk away (canceled), or
// did the engine itself break (internal)?

// Class partitions query failures.
type Class string

const (
	// ClassInvalid: the request is malformed (unknown dataset,
	// strategy, relation or column). Retrying is pointless. HTTP 400.
	ClassInvalid Class = "invalid"
	// ClassTimeout: the query's deadline (Request.TimeoutMillis or the
	// client context's deadline) expired while queued or executing.
	// HTTP 408.
	ClassTimeout Class = "timeout"
	// ClassShed: the service refused the query to protect itself —
	// admission queue full, admission wait exceeded, circuit breaker
	// open, or the service is draining. Retryable after the hint.
	// HTTP 503 with Retry-After.
	ClassShed Class = "shed"
	// ClassCanceled: the client's context was canceled. HTTP 499.
	ClassCanceled Class = "canceled"
	// ClassInternal: the engine failed (including recovered worker
	// panics). HTTP 500.
	ClassInternal Class = "internal"
)

// QueryError is a classified query failure. The HTTP layer, the load
// generator and the chaos suite all consume the class rather than
// matching error strings.
type QueryError struct {
	// Class is the failure class (never empty).
	Class Class
	// RetryAfter, when nonzero, is the server's jittered hint for when
	// a retry is worth attempting (shed failures).
	RetryAfter time.Duration
	// Err is the underlying cause.
	Err error
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("service: %s: %v", e.Class, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// Classify maps any error returned by Service.Query (or the HTTP
// runner) to its failure class. Unclassified errors are internal.
func Classify(err error) Class {
	if err == nil {
		return ""
	}
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe.Class
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	return ClassInternal
}

// asQueryError returns err as a *QueryError (nil for nil): err itself
// when it already is one, otherwise a new one of err's class — so a
// deadline expiry surfacing from the executor is a timeout, a client
// cancellation is canceled, and anything else (including recovered
// worker panics) is internal.
func asQueryError(err error) *QueryError {
	if err == nil {
		return nil
	}
	if qe, ok := err.(*QueryError); ok {
		return qe
	}
	return &QueryError{Class: Classify(err), RetryAfter: RetryAfterHint(err), Err: err}
}

// RetryAfterHint extracts the server's retry hint from a classified
// error (0 if absent).
func RetryAfterHint(err error) time.Duration {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe.RetryAfter
	}
	return 0
}

// Retryable reports whether a failure class is worth retrying with
// backoff: shed load clears, timeouts may have been queueing-induced.
func Retryable(c Class) bool {
	return c == ClassShed || c == ClassTimeout
}

// invalidErr wraps a request-validation failure.
func invalidErr(err error) *QueryError {
	return &QueryError{Class: ClassInvalid, Err: err}
}

// shedErr wraps a load-shedding rejection with a jittered retry hint.
func shedErr(err error, retryAfter time.Duration) *QueryError {
	return &QueryError{Class: ClassShed, RetryAfter: retryAfter, Err: err}
}

// jitter returns d scaled by a uniform factor in [1, 2): retry hints
// spread out so shed clients do not reconverge in one thundering herd.
// The global math/rand source is intentional — hints must differ
// across callers, not reproduce.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d + time.Duration(rand.Int63n(int64(d)))
}
