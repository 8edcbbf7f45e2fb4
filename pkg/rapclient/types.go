package rapclient

// Wire types mirroring the /v1 API. They deliberately duplicate the
// server's JSON shapes (internal/service) rather than import them, so
// the client stays dependency-free and pins the wire contract: a field
// rename server-side is a breaking change this package's round-trip
// test catches.

// CompileOptions is the /v1 compile options block (see the service's
// CompileOptions). The zero value means server defaults.
type CompileOptions struct {
	LinearBudgetFactor int  `json:"linear_budget_factor,omitempty"`
	UnfoldThreshold    int  `json:"unfold_threshold,omitempty"`
	MaxNFAStates       int  `json:"max_nfa_states,omitempty"`
	DFAStateCap        int  `json:"dfa_state_cap,omitempty"`
	DisablePrefilter   bool `json:"disable_prefilter,omitempty"`
	// ModePolicy selects the open engine routes: "" or "all" (default)
	// or "force_nfa" (the paper's NFA mode).
	ModePolicy string `json:"mode_policy,omitempty"`
}

// Program is the compile response: the content-hash program ID plus the
// engine breakdown of the compiled ruleset.
type Program struct {
	ID          string         `json:"program_id"`
	CacheHit    bool           `json:"cache_hit"`
	NumPatterns int            `json:"num_patterns"`
	Engines     map[string]int `json:"engines"`
}

// Match is one reported match: the pattern index within the program's
// ruleset and the end offset (exclusive) in the scanned stream.
type Match struct {
	Pattern int `json:"pattern"`
	End     int `json:"end"`
}

// ScanResult is the one-shot scan response.
type ScanResult struct {
	Count   int     `json:"count"`
	Matches []Match `json:"matches"`
}

type openSessionRequest struct {
	ProgramID string `json:"program_id"`
}

type openSessionResponse struct {
	SessionID string `json:"session_id"`
}

// FeedResult is one streamed chunk's response: matches ending inside the
// chunk (stream offsets) and the total stream position consumed so far.
type FeedResult struct {
	Count   int     `json:"count"`
	Offset  int     `json:"offset"`
	Matches []Match `json:"matches"`
}

// SessionSummary is the totals block of a closed session.
type SessionSummary struct {
	SessionID             string `json:"session_id"`
	ProgramID             string `json:"program_id"`
	Bytes                 int64  `json:"bytes"`
	Chunks                int64  `json:"chunks"`
	Matches               int64  `json:"matches"`
	PrefilterScannedBytes int64  `json:"prefilter_scanned_bytes,omitempty"`
	PrefilterSkippedBytes int64  `json:"prefilter_skipped_bytes,omitempty"`
}

// CloseResult is the DELETE /v1/sessions/{id} response: end-anchored
// matches that fired at the final byte plus the session summary.
type CloseResult struct {
	Count   int            `json:"count"`
	Matches []Match        `json:"matches"`
	Summary SessionSummary `json:"summary"`
}

// UpdateResult is the live ruleset hot-swap report: the reconfiguration
// delta the fabric would load and its modeled cost.
type UpdateResult struct {
	ProgramID   string `json:"program_id"`
	Generation  int64  `json:"generation"`
	NumPatterns int    `json:"num_patterns"`

	DeltaBytes     int `json:"delta_bytes"`
	FullImageBytes int `json:"full_image_bytes"`
	DeltaRecords   int `json:"delta_records"`

	ArraysTouched   int `json:"arrays_touched"`
	ArraysUntouched int `json:"arrays_untouched"`

	ReloadCycles     int64   `json:"reload_cycles"`
	FullReloadCycles int64   `json:"full_reload_cycles"`
	StallCycles      int64   `json:"stall_cycles"`
	EnergyPJ         float64 `json:"energy_pj"`
	ModelLatencyUS   float64 `json:"model_latency_us"`
}

// RequestCounts is the /v1/stats requests block: API requests finished
// since the server started, those answered 5xx, and those slower than
// 250 ms.
type RequestCounts struct {
	Total  int64 `json:"total"`
	Errors int64 `json:"5xx"`
	Slow   int64 `json:"slow"`
}

// HealthComponent is one scored health dimension.
type HealthComponent struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
	State string  `json:"state"`
}

// Health is the /v1/health body (also embedded in /v1/stats): the
// overall node score is the minimum component score.
type Health struct {
	Status     string            `json:"status"`
	Score      float64           `json:"score"`
	Components []HealthComponent `json:"components,omitempty"`
}

// SessionCounts is the /v1/stats session-table block.
type SessionCounts struct {
	Open   int64 `json:"open"`
	Opened int64 `json:"opened"`
	Closed int64 `json:"closed"`
}

// ProgramStats is one cached program's counters in /v1/stats.
type ProgramStats struct {
	ID          string `json:"id"`
	NumPatterns int    `json:"num_patterns"`
	Generation  int64  `json:"generation"`
	Scans       int64  `json:"scans"`
	Bytes       int64  `json:"bytes"`
	Matches     int64  `json:"matches"`
	Sessions    int64  `json:"sessions"`
}

// Stats mirrors the /v1/stats blocks a remote control loop routes on
// (the cluster's canary watcher and load balancer, dashboards).
// Blocks this struct does not name are ignored on decode.
type Stats struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Scans         int64          `json:"scans"`
	ScanBytes     int64          `json:"scan_bytes"`
	ScanMatches   int64          `json:"scan_matches"`
	Sessions      SessionCounts  `json:"sessions"`
	Requests      RequestCounts  `json:"requests"`
	Health        Health         `json:"health"`
	Programs      []ProgramStats `json:"programs"`
}

type errorResponse struct {
	Error string `json:"error"`
}
