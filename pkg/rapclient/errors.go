package rapclient

import (
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Sentinel errors mirroring the service's typed-error surface. Match
// with errors.Is against any error returned by a Client method:
//
//	_, err := cl.Scan(ctx, id, data)
//	switch {
//	case errors.Is(err, rapclient.ErrNotFound):   // unknown program/session
//	case errors.Is(err, rapclient.ErrOverLimit):  // 429 after retries; see RetryAfter
//	case errors.Is(err, rapclient.ErrCompile):    // ruleset rejected (bad pattern/options)
//	case errors.Is(err, rapclient.ErrUnavailable) // node closed or not ready
//	}
var (
	// ErrNotFound mirrors service.ErrNotFound: unknown program or
	// session ID (HTTP 404).
	ErrNotFound = errors.New("rapclient: not found")
	// ErrOverLimit mirrors qos.ErrOverLimit: per-tenant admission or
	// backpressure rejection (HTTP 429). The wrapped *APIError carries
	// the server's Retry-After.
	ErrOverLimit = errors.New("rapclient: over limit")
	// ErrCompile mirrors *compile.Error: the ruleset (or its options) was
	// rejected (HTTP 400). The *APIError message carries the server's
	// diagnostic chain.
	ErrCompile = errors.New("rapclient: ruleset rejected")
	// ErrUnavailable reports a node that cannot take traffic: closed
	// (HTTP 503) or failing its readiness probe.
	ErrUnavailable = errors.New("rapclient: service unavailable")
)

// APIError is the typed form of every non-2xx API response. It wraps
// the matching sentinel (errors.Is works through it) and keeps the raw
// status, the server's error message, and any Retry-After hint.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rapclient: HTTP %d: %s", e.Status, e.Message)
}

// Is maps the response status onto the sentinel errors.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.Status == http.StatusNotFound
	case ErrOverLimit:
		return e.Status == http.StatusTooManyRequests
	case ErrCompile:
		return e.Status == http.StatusBadRequest
	case ErrUnavailable:
		return e.Status == http.StatusServiceUnavailable
	}
	return false
}

// RetryAfterOf extracts the server's Retry-After hint from any error
// returned by this package (0, false when absent) — the client-side
// mirror of qos.RetryAfterOf.
func RetryAfterOf(err error) (time.Duration, bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter, true
	}
	return 0, false
}
