package telemetry

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// statusWriter captures the status code and body size for access logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap supports http.ResponseController passthrough (flush, deadlines).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// RequestObserver receives every finished request with its status and
// total duration — the hook the service counts requests, 5xx answers
// and slow answers with, without the middleware knowing what it counts.
type RequestObserver func(r *http.Request, status int, d time.Duration)

// Middleware wraps next with request tracing and structured access
// logging: each request gets a Trace (continuing the caller's
// traceparent header when present) injected into the request context,
// the trace ID is echoed in the X-Trace-Id response header, the finished
// trace lands in the tracer's ring buffer, obs (when non-nil) sees the
// finished request, and — when logger is non-nil — one slog access-log
// line records method, path, status, bytes, duration and trace ID.
// Handlers and the service layer attach per-stage spans to the ambient
// trace via TraceFromContext.
func Middleware(tracer *Tracer, logger *slog.Logger, obs RequestObserver, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := tracer.Start(r.Method+" "+r.URL.Path, r.Header.Get(TraceParentHeader))
		if id := tr.ID(); id != "" {
			w.Header().Set("X-Trace-Id", id)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ContextWithTrace(r.Context(), tr)))
		tr.SetAttr("method", r.Method)
		tr.SetAttr("path", r.URL.Path)
		tr.SetAttr("status", strconv.Itoa(sw.status))
		d := tracer.Finish(tr)
		if d == 0 {
			d = time.Since(start)
		}
		if obs != nil {
			obs(r, sw.status, d)
		}
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", d),
				slog.String("trace_id", tr.ID()),
			)
		}
	})
}
