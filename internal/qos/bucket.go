package qos

import "time"

// bucket is a token bucket over scan bytes: level tokens are available
// now, refilling at rate tokens/second up to burst. It is unexported and
// unguarded — the owning Tenant serializes access under its mutex.
//
// Requests larger than the burst are not rejected forever: a full bucket
// admits them and goes into debt (negative level), so the long-term rate
// holds while oversized one-shot bodies still make progress.
type bucket struct {
	rate  float64 // tokens per second; 0 = unlimited
	burst float64 // capacity; also the admission threshold cap
	level float64
	last  time.Time
}

// take attempts to spend n tokens at time now. It returns ok=true and
// debits the bucket, or ok=false with the duration until the bucket will
// have refilled enough for the same request to pass.
func (b *bucket) take(n int64, now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.refill(now)
	// A request can never need more than one full burst of credit;
	// anything larger is admitted at full bucket and paid off as debt.
	need := min(float64(n), b.burst)
	if b.level >= need {
		b.level -= float64(n)
		return true, 0
	}
	wait := time.Duration((need - b.level) / b.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Nanosecond
	}
	return false, wait
}

// debit spends n tokens at time now without a test, into debt if need be:
// the rest of a body whose first part take admitted.
func (b *bucket) debit(n int64, now time.Time) {
	if b.rate <= 0 {
		return
	}
	b.refill(now)
	b.level -= float64(n)
}

// refill advances the bucket to now.
func (b *bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		b.level = b.burst
		return
	}
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.level = min(b.level+elapsed.Seconds()*b.rate, b.burst)
	}
	b.last = now
}

// levelAt reports the current token level (possibly negative debt),
// advancing the refill clock — the scheduler-visible bandwidth headroom.
func (b *bucket) levelAt(now time.Time) float64 {
	if b.rate <= 0 {
		return 0
	}
	b.refill(now)
	return b.level
}
