package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/input"
	"repro/internal/qos"
	"repro/internal/refmatch"
	"repro/internal/telemetry"
)

// Handler returns the HTTP surface of the service. The API is versioned
// under /v1/:
//
//	POST   /v1/programs            {"patterns":[...], "options":{...}} → compile or cache-hit
//	PUT    /v1/programs/{id}       {"patterns":[...], "options":{...}} → live ruleset hot-swap
//	POST   /v1/programs/{id}/scan  raw bytes → one-shot matches
//	POST   /v1/sessions            {"program_id":...} → open streaming session
//	POST   /v1/sessions/{id}/data  raw bytes → matches in this chunk
//	DELETE /v1/sessions/{id}       → end-anchored matches + totals
//	GET    /v1/stats               → counters snapshot (JSON)
//	GET    /v1/health              → scored component health (JSON)
//	GET    /metrics                → Prometheus/OpenMetrics exposition (unversioned)
//	GET    /debug/traces           → recent slow request traces (unversioned)
//	GET    /healthz                → ok (liveness, unversioned)
//	GET    /readyz                 → 503 while any health component is critical
//
// The original unprefixed routes (POST /programs, ...) remain as aliases
// for existing clients: they serve identical responses but mark each one
// deprecated via a Deprecation header and point at the /v1 successor
// route via a Link header.
//
// API routes are wrapped in the telemetry middleware: every request gets
// a trace (continuing an incoming traceparent header), per-stage spans,
// an X-Trace-Id response header, and — when Config.Logger is set — one
// structured access-log line. Scrape and health endpoints stay outside
// the middleware so monitoring traffic does not pollute the trace ring.
func (s *Service) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /programs", s.handleCompile)
	api.HandleFunc("PUT /programs/{id}", s.handleUpdate)
	api.HandleFunc("POST /programs/{id}/scan", s.handleScan)
	api.HandleFunc("POST /sessions", s.handleOpenSession)
	api.HandleFunc("POST /sessions/{id}/data", s.handleFeed)
	api.HandleFunc("DELETE /sessions/{id}", s.handleCloseSession)
	api.HandleFunc("GET /stats", s.handleStats)
	apiH := s.tenantMiddleware(telemetry.Middleware(s.tracer, s.cfg.Logger, s.observeRequest, api))

	root := http.NewServeMux()
	root.Handle("/v1/", http.StripPrefix("/v1", apiH))
	root.Handle("/", deprecatedAlias(apiH))
	// Health, scrape and debug endpoints stay outside the middleware;
	// "GET /v1/health" is more specific than "/v1/", so it wins the route.
	s.monitorRoutes(root)
	root.Handle("GET /debug/traces", s.tracer.Handler())
	return root
}

// slowRequest is the duration past which a finished API request counts
// as slow in rap_requests_slow_total and the stats requests block.
const slowRequest = 250 * time.Millisecond

// observeRequest counts every finished API request, its 5xx answers and
// the answers slower than slowRequest: the counters a canary's window
// is judged on. Rejections (429) are not errors; only 5xx is. A stats
// read is not counted, so a canary watch's own samples do not dilute
// the window they judge.
func (s *Service) observeRequest(r *http.Request, status int, d time.Duration) {
	if r.URL.Path == "/stats" {
		return
	}
	s.requests.Inc()
	if status >= 500 {
		s.requests5xx.Inc()
	}
	if d > slowRequest {
		s.requestsSlow.Inc()
	}
}

// tenantMiddleware attaches the request's tenant identity — the value of
// the configured identity header (default X-RAP-Tenant); absent maps to
// the anonymous tenant — to the context, where admission control and
// accounting pick it up.
func (s *Service) tenantMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := qos.WithTenant(r.Context(), r.Header.Get(s.qosReg.Header()))
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// LegacySunset is the removal date of the unprefixed legacy routes,
// served as an RFC 8594 Sunset header on every alias response. After
// this date the aliases are deleted and only /v1 remains; clients
// watching for the Deprecation/Link/Sunset triple have until then to
// move (the README "API versioning" section documents the path).
const LegacySunset = "Fri, 01 Jan 2027 00:00:00 GMT"

// deprecatedAlias serves the legacy unprefixed API routes: identical
// behavior, plus a Deprecation marker (RFC 9745), a Link pointing
// clients at the versioned successor route, and a Sunset date (RFC
// 8594) after which the aliases will be removed.
func deprecatedAlias(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("</v1%s>; rel=%q", r.URL.Path, "successor-version"))
		w.Header().Set("Sunset", LegacySunset)
		next.ServeHTTP(w, r)
	})
}

// Wire types.

type compileResponse struct {
	ProgramID   string         `json:"program_id"`
	CacheHit    bool           `json:"cache_hit"`
	NumPatterns int            `json:"num_patterns"`
	Engines     map[string]int `json:"engines"`
}

type matchJSON struct {
	Pattern int `json:"pattern"`
	End     int `json:"end"`
}

type openSessionRequest struct {
	ProgramID string `json:"program_id"`
}

type openSessionResponse struct {
	SessionID string `json:"session_id"`
}

type closeSessionResponse struct {
	Count   int            `json:"count"` // end-anchored matches at final byte
	Matches []matchJSON    `json:"matches"`
	Summary SessionSummary `json:"summary"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// decodeRequest reads the request body through input.ReadBody, so a body
// over the limit is refused with 413 as a scan's is, and decodes it as one
// JSON value into v: a *Ruleset by DecodeRuleset, anything else by
// json.Unmarshal, which a cluster gateway routes the same body with. Both
// refuse anything but white space after the value; a refusal is answered
// with 400, and either failure is reported as false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	data, ok := input.ReadBody(w, r)
	if !ok {
		return false
	}
	var err error
	if rs, ok := v.(*Ruleset); ok {
		*rs, err = DecodeRuleset(data)
	} else {
		err = json.Unmarshal(data, v)
	}
	input.Bodies.Put(data) // decoded strings are copies
	if err != nil {
		writeError(w, fmt.Errorf("decode request: %w", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Service) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req Ruleset
	if !decodeRequest(w, r, &req) {
		return
	}
	prog, hit, err := s.Compile(r.Context(), req.Patterns, req.Options)
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) || errors.Is(err, qos.ErrOverLimit) {
		writeServiceError(w, err) // backpressure or admission, not a bad ruleset
		return
	}
	if err != nil {
		writeError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, compileResponse{
		ProgramID:   prog.ID,
		CacheHit:    hit,
		NumPatterns: prog.Matcher.NumPatterns(),
		Engines:     prog.engineCounts(),
	})
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req Ruleset
	if !decodeRequest(w, r, &req) {
		return
	}
	res, err := s.Update(r.Context(), r.PathValue("id"), req.Patterns, req.Options)
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrClosed) || errors.Is(err, qos.ErrOverLimit) {
		writeServiceError(w, err)
		return
	}
	if err != nil { // compile/map failures are caller errors, like POST /programs
		writeError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// readBody is input.ReadBody timed as the body_read stage of a feed.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	start := time.Now()
	data, ok := input.ReadBody(w, r)
	s.observeStage(s.stageBodyRead, telemetry.TraceFromContext(r.Context()), "body_read", start)
	return data, ok
}

// writeMatches answers a scan (offset < 0) or a feed with
// appendMatchBody's bytes; building them is the encode stage.
func (s *Service) writeMatches(w http.ResponseWriter, r *http.Request, offset int, matches []refmatch.Match) {
	start := time.Now()
	body := appendMatchBody(wireBufs.Get(), offset, matches)
	s.observeStage(s.stageEncode, telemetry.TraceFromContext(r.Context()), "encode", start)
	writeBody(w, http.StatusOK, body)
	wireBufs.Put(body)
}

// scanIdleTimeout is the longest an HTTP scan body may send nothing; a
// test shortens it.
var scanIdleTimeout = input.IdleReadTimeout

// handleScan reads the body a chunk at a time into one buffer and scans
// each chunk before it reads the next (scanChunks), so the request holds
// one chunk however long its body; body_read is their reads summed.
func (s *Service) handleScan(w http.ResponseWriter, r *http.Request) {
	body, ok := input.ReadChunks(w, r, scanChunk, scanIdleTimeout)
	if !ok {
		return
	}
	defer body.Close() // after the last task: matches hold offsets, not bytes
	var read stageSum
	matches, err := s.scanChunks(r.Context(), r.PathValue("id"), int(r.ContentLength), func() ([]byte, bool, error) {
		start := time.Now()
		chunk, last, err := body.Next()
		read.add(start, time.Since(start))
		return chunk, last, err
	})
	if !read.start.IsZero() {
		s.observeSum(s.stageBodyRead, telemetry.TraceFromContext(r.Context()), "body_read", read)
	}
	if err != nil {
		if !body.Refuse(w) {
			writeServiceError(w, err)
		}
		return
	}
	s.writeMatches(w, r, -1, matches)
}

func (s *Service) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req openSessionRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	id, err := s.OpenSession(r.Context(), req.ProgramID)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, openSessionResponse{SessionID: id})
}

func (s *Service) handleFeed(w http.ResponseWriter, r *http.Request) {
	chunk, ok := s.readBody(w, r)
	if !ok {
		return
	}
	matches, offset, err := s.feed(r.Context(), r.PathValue("id"), chunk)
	// Safe to recycle: the streaming engines copy the history they keep
	// across chunks (prefilter.Stream), so no engine retains the body.
	input.Bodies.Put(chunk)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	s.writeMatches(w, r, offset, matches)
}

func (s *Service) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	final, summary, err := s.CloseSession(r.Context(), r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, closeSessionResponse{
		Count:   len(final),
		Matches: toJSON(final),
		Summary: summary,
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	// Snapshots must never be served from an intermediary cache: every
	// read is a live view attributable to this process (see Stats.Build).
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, s.Stats())
}

// toJSON is the close response's match list, encoded once per session by
// encoding/json; scan and feed go through appendMatchBody.
func toJSON(ms []refmatch.Match) []matchJSON {
	out := make([]matchJSON, len(ms))
	for i, m := range ms {
		out[i] = matchJSON{Pattern: m.Pattern, End: m.End}
	}
	return out
}

// writeServiceError maps service errors to HTTP statuses: unknown IDs to
// 404, backpressure (full queues, session cap) and per-tenant admission
// rejections to 429, the rest to 500. Every 429 carries a Retry-After
// header; admission rejections compute it from the tenant's token-bucket
// refill time, the rest use the 1-second floor.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, err, http.StatusNotFound)
	case errors.Is(err, qos.ErrOverLimit):
		ra, _ := qos.RetryAfterOf(err)
		w.Header().Set("Retry-After", retryAfterSeconds(ra))
		writeError(w, err, http.StatusTooManyRequests)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrSessionLimit):
		w.Header().Set("Retry-After", "1")
		writeError(w, err, http.StatusTooManyRequests)
	case errors.Is(err, ErrClosed):
		writeError(w, err, http.StatusServiceUnavailable)
	default:
		writeError(w, err, http.StatusInternalServerError)
	}
}

// retryAfterSeconds renders a Retry-After value: whole seconds, rounded
// up, minimum 1 (the header has one-second granularity).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeError(w http.ResponseWriter, err error, status int) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
