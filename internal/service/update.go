package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/arch"
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

// deploy runs the hardware half of the pipeline — map, bitstream — over a
// compiled ruleset, producing the placement and the deployment image the
// reconfiguration delta is taken over. Given the image, placement and
// Result of the program being replaced, it remaps from that placement and
// rebuilds on that image (mapper.Remap, bitstream.Rebuild), so both cost
// what the update changed; repacked reports a remap that fell back to a
// cold pack. With none it maps and builds cold.
func deploy(base *bitstream.Image, prev *arch.Placement, prevRes, res *compile.Result) (img *bitstream.Image, p *arch.Placement, repacked bool, err error) {
	if p, repacked, err = mapper.Remap(prev, prevRes, res, mapper.Options{}); err != nil {
		return nil, nil, repacked, err
	}
	img, err = bitstream.Rebuild(base, res, p)
	return img, p, repacked, err
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
// The served generation is the cache for the next one, and the generation
// it displaced is kept behind it: a pattern whose text either already
// holds, compiled under the same options, keeps its compiled entry and its
// DFA table or NBVA kernel, and only texts neither holds are parsed, routed
// and determinised, so a revert compiles nothing. A restored pattern is
// placed as a new one. A windowed group whose members an update left as
// they were keeps its prefilter literal union and its union DFAs, and a
// changed one is rebuilt (its unions on its first scan), so the matcher is
// that of a cold compile of the same list. The hardware half is not: each kept pattern keeps its place on the
// fabric and each tile nothing moved in keeps its configuration (deploy),
// so the image depends on the history of generations and the delta is as
// small as the edit. Result.Fingerprint does not: the compile is a cold
// one's.
//
// What an update allocates and computes is what it rewrites. Recompile
// takes a text still at its slot without a lookup; Relower takes a kept
// pattern's table by its slot and keeps each lane the edit left alone;
// Remap forks only the arrays and rewrites only the tiles the edit touched;
// Rebuild writes only those tiles, with the CAM codes each compiled state
// carries, and folds the image CRC from per-tile ones; Diff compares each
// written tile once. What is left in proportion to the ruleset is a result
// slot per pattern and a few passes over integers.
//
// The expensive half — compiling the new ruleset once, for both the
// matcher and its deployment image, and building the displaced program's
// image if it never had one — runs on the dedicated compile pool with no
// service lock held, so concurrent scans and streams proceed untouched
// while the replacement builds. Only the diff and the pointer swap are
// serialized under the update lock. A displaced program whose image cannot
// be built was never loaded: the new image is built cold and loaded whole.
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
		m        *refmatch.Matcher
		res      *compile.Result
		newImg   *bitstream.Image
		place    *arch.Placement
		repacked bool
		cerr     error
	)
	if err := s.runCompile(tr, func() {
		compileStart := time.Now()
		m, res, cerr = build(ctx, old, patterns, opts)
		if cerr != nil {
			return
		}
		s.observeStage(s.stageCompile, tr, "compile", compileStart,
			telemetry.L("reused", strconv.Itoa(res.Reused)),
			telemetry.L("restored", strconv.Itoa(res.Restored)),
			telemetry.L("compiled", strconv.Itoa(len(patterns)-res.Reused-res.Restored)),
			telemetry.L("lanes_reused", strconv.Itoa(m.LanesReused())))
		// The image the new one is built on and the delta taken against: a
		// program that has not been through an update has none yet, and it
		// is built here so that no other update waits behind a map-and-build.
		oldImg, oldPlace, _ := old.hwImage()
		imageEnd := tr.StartSpan("image_build")
		var built []telemetry.Label // what the span says of the new image
		defer func() { imageEnd(built...) }()
		if newImg, place, repacked, cerr = deploy(oldImg, oldPlace, old.res, res); cerr != nil {
			cerr = fmt.Errorf("service: new deployment image: %w", cerr)
			return
		}
		built = []telemetry.Label{
			telemetry.L("arrays", strconv.Itoa(len(newImg.Arrays))),
			telemetry.L("tiles_used", strconv.Itoa(place.TilesUsed())),
			telemetry.L("tiles_reused", strconv.Itoa(place.TilesReused())),
			telemetry.L("repacked", strconv.FormatBool(repacked)),
			telemetry.L("image_bytes", strconv.Itoa(newImg.SizeBytes())),
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
	oldImg, _, unbuilt := old.hwImage()
	if unbuilt != nil {
		oldImg = &bitstream.Image{} // the delta replaces every array
	}
	diffEnd := tr.StartSpan("diff")
	delta := reconfig.Diff(oldImg, newImg)
	plan, err := reconfig.Schedule(delta, newImg)
	if err != nil {
		return nil, err
	}
	cost, full, deltaBytes := plan.Cost, reconfig.FullCost(newImg), delta.SizeBytes()
	if unbuilt != nil {
		cost = full // a full load of the new image
	}
	diffEnd(telemetry.L("records", strconv.Itoa(delta.Records())),
		telemetry.L("delta_bytes", strconv.Itoa(deltaBytes)),
		telemetry.L("arrays_touched", strconv.Itoa(len(plan.Steps))))

	next := &Program{
		ID:         programID,
		Matcher:    m,
		CreatedAt:  time.Now(),
		Opts:       opts,
		Generation: old.Generation + 1,
		Owner:      ten.Name(),
		MemBytes:   memEstimate(patterns),
		res:        res,
		// The generation this one displaces is the one resolved under the
		// lock, not necessarily the one phase 1 compiled from.
		displaced: generation{old.res, old.Matcher},
		hwPlace:   place,
		hwImg:     newImg,
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
	s.updateRestored.Add(int64(res.Restored))
	s.updateCompiled.Add(int64(len(patterns) - res.Reused - res.Restored))
	if repacked {
		s.updateRepacks.Inc()
	}
	s.updateDeltaBytes.Add(int64(deltaBytes))
	s.updateFullBytes.Add(int64(newImg.SizeBytes()))
	s.updateReloadCycles.Add(cost.ReloadCycles)
	s.updateStallCycles.Add(plan.StallCycles)
	s.updateStallHist.ObserveValue(plan.StallCycles)
	s.updateDeltaHist.ObserveValue(int64(deltaBytes))
	s.observeStage(s.stageApply, tr, "reconfig_apply", t0)

	return &UpdateResult{
		ProgramID:        programID,
		Generation:       next.Generation,
		NumPatterns:      m.NumPatterns(),
		DeltaBytes:       deltaBytes,
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
