package refmatch

import (
	"errors"
	"fmt"
)

// ErrNotParallelizable reports that a pattern set cannot run on the
// data-parallel (Simultaneous-FA) scan path and Session.ScanParallel
// would not be byte-exact: the caller should fall back to the serial
// Scan. Every occurrence is a *ParallelizeError carrying a stable reason
// token, so callers can both branch with errors.Is and count fallbacks
// by reason.
var ErrNotParallelizable = errors.New("refmatch: pattern set is not parallelizable")

// Stable ParallelizeError.Reason tokens.
const (
	// ReasonDisabled: Options.SFAStateCap is negative.
	ReasonDisabled = "disabled"
	// ReasonNBVAEngine: a pattern runs on the NBVA engine (large bounded
	// repetition); its counter state has no chunk-composable form here.
	ReasonNBVAEngine = "nbva_engine"
	// ReasonAnchored: a pattern is start- or end-anchored.
	ReasonAnchored = "anchored"
	// ReasonMatchesEmpty: a pattern matches the empty string.
	ReasonMatchesEmpty = "matches_empty"
	// ReasonStateCap: the SFA union subset construction exceeded
	// Options.SFAStateCap (the underlying cause wraps
	// automata.ErrStateCapExceeded).
	ReasonStateCap = "state_cap"
)

// ParallelizeError is the typed ScanParallel ineligibility failure.
type ParallelizeError struct {
	Pattern int    // offending pattern index, or -1 for a set-level failure
	Reason  string // one of the Reason* tokens above
	Err     error  // underlying cause, when any
}

func (e *ParallelizeError) Error() string {
	msg := fmt.Sprintf("%v: %s", ErrNotParallelizable, e.Reason)
	if e.Pattern >= 0 {
		msg = fmt.Sprintf("%s (pattern %d)", msg, e.Pattern)
	}
	if e.Err != nil {
		msg = fmt.Sprintf("%s: %v", msg, e.Err)
	}
	return msg
}

// Unwrap exposes both the ErrNotParallelizable sentinel and the
// underlying cause to errors.Is/errors.As.
func (e *ParallelizeError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrNotParallelizable, e.Err}
	}
	return []error{ErrNotParallelizable}
}

// FallbackReason returns the stable reason token of a ScanParallel
// failure, or "" when err is not a parallelize error — the label the
// service surfaces per fallback in /stats and on /metrics.
func FallbackReason(err error) string {
	var pe *ParallelizeError
	if errors.As(err, &pe) {
		return pe.Reason
	}
	return ""
}
