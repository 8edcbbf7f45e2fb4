package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/reconfig"
	"repro/internal/refmatch"
	"repro/internal/telemetry"
)

// UpdateResult reports one ruleset hot-swap: the delta bitstream the
// fabric would load instead of a full image, and the modeled cost of
// loading it (internal/reconfig's §3.3 I/O-path model).
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

// buildImage runs the hardware half of the pipeline — map, bitstream —
// over a compiled ruleset, producing the deployment image the
// reconfiguration delta is computed over and the number of tiles its
// placement occupies.
func buildImage(res *compile.Result) (img *bitstream.Image, tilesUsed int, err error) {
	p, err := mapper.Map(res, mapper.Options{})
	if err != nil {
		return nil, 0, err
	}
	img, err = bitstream.Build(res, p)
	return img, p.TilesUsed(), err
}

// Update hot-swaps the ruleset behind a program ID with zero downtime:
// the new patterns are compiled and mapped, the deployment delta against
// the currently-served image is computed and costed, and the program
// object behind the ID is atomically replaced. Open streaming sessions
// hold their *Program pointer and stay pinned to the pre-update ruleset
// until they close; new sessions and one-shot scans see the new ruleset
// from the moment Update returns. This mirrors the hardware semantics of
// SimulateRAPReconfig: no automaton state migrates across the swap.
//
// The served generation is the cache for the next one: a pattern whose
// text it already holds, compiled under the same options, keeps its
// compiled entry and its DFA table or NBVA kernel, and only new texts are
// parsed, routed and determinised. What depends on the whole set — the
// Shift-And packing, the prefilter literal union, the placement, the
// image, the delta — is rebuilt whole, so the outcome is that of a cold
// compile of the same list.
//
// The expensive half — compiling the new ruleset once, for both the
// matcher and its deployment image, and building the displaced program's
// image if it never had one — runs on the dedicated compile pool with no
// service lock held, so concurrent scans and streams proceed untouched
// while the replacement builds. Only the diff and the pointer swap are
// serialized under the update lock.
func (s *Service) Update(ctx context.Context, programID string, patterns []string, opts CompileOptions) (*UpdateResult, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("service: empty pattern list")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tr := telemetry.TraceFromContext(ctx)
	// Fail fast on unknown IDs before paying for a compile.
	old, ok := s.lookup(tr, programID)
	if !ok {
		return nil, fmt.Errorf("%w: program %s", ErrNotFound, programID)
	}
	t0 := time.Now()

	// Phase 1 — heavy work, off the update lock and off the scan shards.
	// The compile holds one of the tenant's compile slots like a fresh
	// POST /programs build would.
	ten := s.tenant(ctx)
	if err := ten.AcquireCompile(); err != nil {
		return nil, err
	}
	defer ten.ReleaseCompile()
	var (
		m      *refmatch.Matcher
		res    *compile.Result
		newImg *bitstream.Image
		cerr   error
	)
	if err := s.runCompile(tr, func() {
		compileStart := time.Now()
		m, res, cerr = build(ctx, old, patterns, opts)
		if cerr != nil {
			return
		}
		s.observeStage(s.stageCompile, tr, "compile", compileStart,
			telemetry.L("reused", strconv.Itoa(res.Reused)),
			telemetry.L("compiled", strconv.Itoa(len(patterns)-res.Reused)))
		imageEnd := tr.StartSpan("image_build")
		var built []telemetry.Label // what the span says of the new image
		defer func() { imageEnd(built...) }()
		var tilesUsed int
		if newImg, tilesUsed, cerr = buildImage(res); cerr != nil {
			cerr = fmt.Errorf("service: new deployment image: %w", cerr)
			return
		}
		built = []telemetry.Label{
			telemetry.L("arrays", strconv.Itoa(len(newImg.Arrays))),
			telemetry.L("tiles_used", strconv.Itoa(tilesUsed)),
			telemetry.L("image_bytes", strconv.Itoa(newImg.SizeBytes())),
		}
		// The image the delta is taken against: a program that has not
		// been through an update has none yet, and it is built here so
		// that no other update waits behind a map-and-build.
		if _, cerr = old.hwImage(); cerr != nil {
			cerr = fmt.Errorf("service: current deployment image: %w", cerr)
		}
	}); err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}

	// Phase 2 — serialize the read-diff-swap so concurrent updates of one
	// ID cannot interleave and lose a generation. Re-resolve the program
	// under the lock: if another update won the race, the diff must be
	// against the image actually being served now — the one that update
	// installed its program with, so nothing is built here.
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if old, ok = s.lookup(tr, programID); !ok {
		return nil, fmt.Errorf("%w: program %s", ErrNotFound, programID)
	}
	oldImg, err := old.hwImage()
	if err != nil {
		return nil, fmt.Errorf("service: current deployment image: %w", err)
	}
	diffEnd := tr.StartSpan("diff")
	delta := reconfig.Diff(oldImg, newImg)
	deltaData, err := delta.MarshalBinary()
	if err != nil {
		return nil, err
	}
	plan, err := reconfig.Schedule(delta, newImg)
	if err != nil {
		return nil, err
	}
	cost, full := plan.Cost, reconfig.FullCost(newImg)
	diffEnd(telemetry.L("records", strconv.Itoa(delta.Records())),
		telemetry.L("delta_bytes", strconv.Itoa(len(deltaData))),
		telemetry.L("arrays_touched", strconv.Itoa(len(plan.Steps))))

	next := &Program{
		ID:         programID,
		Patterns:   append([]string(nil), patterns...),
		Matcher:    m,
		CreatedAt:  time.Now(),
		Opts:       opts,
		Generation: old.Generation + 1,
		Owner:      ten.Name(),
		MemBytes:   memEstimate(patterns),
		res:        res,
		hwImg:      newImg,
	}
	// The cache slot changes hands: charge the updating tenant for the
	// replacement and release the displaced program's owner (skipped if
	// an eviction raced the swap — onEvict already settled it).
	ten.ChargeCacheBytes(next.MemBytes)
	if displaced := s.cache.replace(programID, next); displaced != nil {
		s.qosReg.Tenant(displaced.Owner).ChargeCacheBytes(-displaced.MemBytes)
	}

	s.updates.Inc()
	s.updateReused.Add(int64(res.Reused))
	s.updateCompiled.Add(int64(len(patterns) - res.Reused))
	s.updateDeltaBytes.Add(int64(len(deltaData)))
	s.updateFullBytes.Add(int64(newImg.SizeBytes()))
	s.updateReloadCycles.Add(cost.ReloadCycles)
	s.updateStallCycles.Add(plan.StallCycles)
	s.updateStallHist.ObserveValue(plan.StallCycles)
	s.updateDeltaHist.ObserveValue(int64(len(deltaData)))
	s.observeStage(s.stageApply, tr, "reconfig_apply", t0)

	return &UpdateResult{
		ProgramID:        programID,
		Generation:       next.Generation,
		NumPatterns:      m.NumPatterns(),
		DeltaBytes:       len(deltaData),
		FullImageBytes:   newImg.SizeBytes(),
		DeltaRecords:     delta.Records(),
		ArraysTouched:    len(plan.Steps),
		ArraysUntouched:  plan.UntouchedArrays,
		ReloadCycles:     cost.ReloadCycles,
		FullReloadCycles: full.ReloadCycles,
		StallCycles:      plan.StallCycles,
		EnergyPJ:         cost.EnergyPJ,
		ModelLatencyUS:   plan.LatencyUS(),
	}, nil
}
