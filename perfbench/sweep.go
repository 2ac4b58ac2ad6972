package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"gicnet/internal/crosslayer"
	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/routing"
	"gicnet/internal/sim"
	"gicnet/internal/xrand"
)

// mc-sweep: closed loop, one client, a seeded stationary shuffle of cold
// sim.Run jobs over the paper's Figure 6-8 grid. Every pass is a fresh
// permutation of the whole grid, so any two halves of the run hold the
// same mix of jobs.

const (
	sweepTrials = 1024
	// sweepPassSeconds is the nominal time of one pass over the grid on a
	// 2-core Xeon @ 2.10 GHz; the run makes seconds/sweepPassSeconds passes.
	sweepPassSeconds = 2.5
	// sweepReplayEvery samples about one op in this many for the replay
	// check after the timed phase.
	sweepReplayEvery = 32
	// sweepProbeEvery samples about one op in this many for the traced
	// run's block-level decomposition.
	sweepProbeEvery = 6
)

// pinnedSweepDigest is the answer digest of the first pass for seed
// defaultSeed. Any change to an answer of the trial engine changes it.
const pinnedSweepDigest = "482b8e480ecef09a"

var (
	sweepNets     = []string{"submarine", "intertubes", "itu"}
	sweepPs       = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.27}
	sweepSpacings = []float64{50, 100, 150}
	sweepEsts     = []string{"", "is", "qmc"}
)

// sweepJob is one cold simulation run.
type sweepJob struct {
	ID      int     `json:"id"`
	Network string  `json:"network"`
	Model   string  `json:"model"`
	P       float64 `json:"p,omitempty"`
	Spacing float64 `json:"spacing_km"`
	Est     string  `json:"estimator,omitempty"`
	Cross   bool    `json:"cross_layer,omitempty"`
	Seed    uint64  `json:"seed"`
	Cell    int     `json:"cell"` // index of the job's grid cell
}

// sweepGrid is one pass: 3 networks x (6 uniform p + S1 + S2) x 3
// spacings x 3 estimators. Cross-layer scoring rides on the 100 km jobs of
// the two networks with located attach sites — a minority of the grid.
func sweepGrid() []sweepJob {
	var g []sweepJob
	for _, net := range sweepNets {
		models := make([]sweepJob, 0, len(sweepPs)+2)
		for _, p := range sweepPs {
			models = append(models, sweepJob{Model: "uniform", P: p})
		}
		models = append(models, sweepJob{Model: "s1"}, sweepJob{Model: "s2"})
		for _, m := range models {
			for _, sp := range sweepSpacings {
				//gicnet:allow floatcmp spacings are the grid's own literals
				cross := net != "itu" && sp == 100
				for _, est := range sweepEsts {
					g = append(g, sweepJob{
						Network: net, Model: m.Model, P: m.P, Spacing: sp, Est: est,
						Cross: cross, Cell: len(g),
					})
				}
			}
		}
	}
	return g
}

// sweepOps builds the op list: passes seeded permutations of the grid,
// each uniform p jittered within +-10% of its stratum and each job given
// its own trial seed. Passes are drawn in sequence from one stream, so a
// longer run extends a shorter one's list without changing it.
func sweepOps(seed uint64, passes int) []sweepJob {
	rng := xrand.New(seed).Split(0x6d632d7377656570) // "mc-sweep"
	var ops []sweepJob
	for pass := 0; pass < passes; pass++ {
		g := sweepGrid()
		for i := range g {
			if g[i].Model == "uniform" {
				g[i].P *= math.Exp(rng.Range(-0.1, 0.1))
			}
			g[i].Seed = rng.Uint64()
		}
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for i := range g {
			g[i].ID = len(ops)
			ops = append(ops, g[i])
		}
	}
	return ops
}

type sweepEnv struct {
	w   *dataset.World
	idx map[string]*crosslayer.Index
}

func sweepSetup(rec *Recorder) func(parent int) (*sweepEnv, error) {
	return func(parent int) (*sweepEnv, error) {
		w, err := generateWorld(rec, parent)
		if err != nil {
			return nil, err
		}
		env := &sweepEnv{w: w, idx: map[string]*crosslayer.Index{}}
		for _, net := range []string{"submarine", "intertubes"} {
			sp := rec.Begin("crosslayer.compile", parent, -1)
			x, err := crosslayer.Compile(networkOf(w, net), w.Routers, routing.DefaultDemands())
			rec.End(sp)
			if err != nil {
				return nil, fmt.Errorf("crosslayer compile %s: %w", net, err)
			}
			env.idx[net] = x
		}
		return env, nil
	}
}

func (e *sweepEnv) config(j sweepJob, workers int) sim.Config {
	cfg := sim.Config{
		Model: modelFor(j.Model, j.P), SpacingKm: j.Spacing, Trials: sweepTrials,
		Seed: j.Seed, Workers: workers, Estimator: newEstimator(j.Est),
	}
	if j.Cross {
		cfg.CrossLayer = e.idx[j.Network]
	}
	return cfg
}

// runJob runs one job as a user would, sim.Run; a traced run splits it at
// the public boundary into failure.Compile and sim.RunPlan, which is the
// same work (the fingerprints must agree).
func (e *sweepEnv) runJob(ctx context.Context, rec *Recorder, j sweepJob, workers int) (*sim.Result, error) {
	net := networkOf(e.w, j.Network)
	cfg := e.config(j, workers)
	if rec == nil {
		return sim.Run(ctx, net, cfg)
	}
	op := rec.Begin("op.sim", -1, j.ID)
	defer rec.End(op)
	sp := rec.Begin("failure.compile", op, j.ID)
	plan, err := failure.Compile(net, cfg.Model, cfg.SpacingKm)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.Begin("sim.run", op, j.ID)
	defer rec.End(sp)
	return sim.RunPlan(ctx, plan, cfg)
}

// checkResult is the per-op answer check every run makes: the result
// belongs to the job and every outcome is a fraction.
func checkResult(j sweepJob, r *sim.Result) error {
	//gicnet:allow floatcmp the result echoes the configured spacing bit for bit
	if r.Network != j.Network || r.SpacingKm != j.Spacing || len(r.Outcomes) != sweepTrials {
		return fmt.Errorf("op %d: result %s/%g/%d trials does not answer the job", j.ID, r.Network, r.SpacingKm, len(r.Outcomes))
	}
	for _, o := range r.Outcomes {
		if !(o.CableFrac >= 0 && o.CableFrac <= 1 && o.NodeFrac >= 0 && o.NodeFrac <= 1) {
			return fmt.Errorf("op %d: outcome fractions %v/%v outside [0,1]", j.ID, o.CableFrac, o.NodeFrac)
		}
	}
	if j.Cross != (len(r.Cross) == sweepTrials) {
		return fmt.Errorf("op %d: cross-layer scores %d, want %v", j.ID, len(r.Cross), j.Cross)
	}
	if (j.Est != "") != (r.Estimator != "") {
		return fmt.Errorf("op %d: estimator %q, want %q", j.ID, r.Estimator, j.Est)
	}
	return nil
}

func runSweep(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	var rec *Recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	o := &outcome{PerLayer: map[string]float64{}, Diag: map[string]any{}}
	env, setup, err := setupRepeated(rec, sweepSetup(rec))
	if err != nil {
		return nil, err
	}
	o.SetupS = setup
	if cfg.Trace {
		if err := datasetProbe(rec, env.w, o.PerLayer, o); err != nil {
			return nil, err
		}
	}

	passes := int(math.Max(1, math.Round(cfg.Seconds/sweepPassSeconds)))
	ops := sweepOps(cfg.Seed, passes)
	grid := len(sweepGrid())
	workers := cfg.Nproc

	// Warm-up: the first run on each network pays its lazily built caches
	// once per process; users pay that once too, so it is timed apart.
	t := time.Now()
	for _, net := range sweepNets {
		j := sweepJob{Network: net, Model: "uniform", P: 0.01, Spacing: 100, Seed: 1}
		if _, err := env.runJob(ctx, nil, j, workers); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", net, err)
		}
	}
	o.Diag["warmup_s"] = time.Since(t).Seconds()

	// A traced run first times the first pass untraced, the reference for
	// the tracing overhead and for the traced-equals-untraced digest check.
	var refWall time.Duration
	var ref digest
	if cfg.Trace {
		runtime.GC()
		t := time.Now()
		for _, j := range ops[:grid] {
			r, err := env.runJob(ctx, nil, j, workers)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", j.ID, err)
			}
			ref.add(j.ID, r.Fingerprint())
		}
		refWall = time.Since(t)
	}

	fps := make([]uint64, len(ops))
	lat := make([]float64, len(ops))
	var first digest
	var firstPassWall time.Duration
	runtime.GC()
	before := readRuntime()
	cpu0 := readCPU()
	start := time.Now()
	for i, j := range ops {
		t := time.Now()
		r, err := env.runJob(ctx, rec, j, workers)
		lat[i] = ms(time.Since(t))
		o.Attempted++
		if err == nil {
			err = checkResult(j, r)
		}
		if err != nil {
			o.Failed++
			lat[i] = math.Inf(1)
			o.problem("%v", err)
			continue
		}
		fps[i] = r.Fingerprint()
		if i < grid {
			first.add(j.ID, fps[i])
			if i == grid-1 {
				firstPassWall = time.Since(start)
			}
		}
	}
	o.WallS = time.Since(start).Seconds()
	cpuDiag(o.Diag, cpu0, readCPU())
	after := readRuntime()
	o.MemMB = liveHeapMB()
	o.Lat = summarize(lat)
	o.Cold = o.Lat // every sim.Run compiles and runs from scratch
	cells := make([]string, len(ops))
	for i, j := range ops {
		cells[i] = fmt.Sprint(j.Cell)
	}
	o.Diag["half_drift"] = halfDriftBy(lat, cells)
	o.Diag["gen_late_ms"] = 0.0 // closed loop: no schedule to fall behind
	o.Diag["ops"] = len(ops)
	o.Diag["passes"] = passes
	o.Diag["first_pass_digest"] = first.String()
	var all digest
	for i, j := range ops {
		all.add(j.ID, fps[i])
	}
	o.Diag["digest"] = all.String()
	if cfg.Seed == defaultSeed && first.String() != pinnedSweepDigest {
		o.problem("first-pass digest %s, pinned %s", first, pinnedSweepDigest)
	}
	if cfg.Trace {
		if ref != first {
			o.problem("traced first-pass digest %s differs from untraced %s", first, ref)
		}
		o.Overhead = float64(firstPassWall) / float64(refWall)
		o.OverBase = fmt.Sprintf("first pass (%d ops): traced %.3fs / untraced %.3fs", grid, firstPassWall.Seconds(), refWall.Seconds())
		runtimeLayer(o.PerLayer, before, after, len(ops))
		if err := sweepProbe(ctx, rec, env, ops, fps, cfg.Seed, o); err != nil {
			return nil, err
		}
	}

	// Replay check: a seeded sample of ops rerun on one worker must give
	// bit-identical fingerprints (the engine's worker-count independence).
	for i, j := range ops {
		if mix64(cfg.Seed^uint64(j.ID))%sweepReplayEvery != 0 || fps[i] == 0 {
			continue
		}
		r, err := env.runJob(ctx, nil, j, 1)
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", j.ID, err)
		}
		if r.Fingerprint() != fps[i] {
			o.Failed++
			o.problem("op %d: replay on 1 worker gave %016x, timed run %016x", j.ID, r.Fingerprint(), fps[i])
		}
	}
	o.Spans = rec.Spans()
	if cfg.Trace {
		fillSpanLayers(o.PerLayer, o.Spans)
	}
	return o, nil
}

// sweepProbe is the traced run's block-level decomposition of a seeded
// sample of ops: each sampled job is replayed serially block by block
// through the engine's public kernels — Plan.SampleBatch, the estimator's
// SampleBlock, Plan.EvaluateBatch, Index.ScoreBatch — under spans, and the
// assembled result must carry the timed run's fingerprint. Estimator jobs
// also draw each block with the plain sampler first, so the estimator's
// extra cost per trial is its sampling time minus the plain sampler's on
// the same plan and trials. Plan.Contraction is timed here too: sim.Run
// does not build it (PairSurvival and partition do), so the hit ratio is
// the network contraction cache's over these calls.
func sweepProbe(ctx context.Context, rec *Recorder, env *sweepEnv, ops []sweepJob, fps []uint64, seed uint64, o *outcome) error {
	var hits0, miss0 uint64
	for _, n := range env.w.Networks() {
		h, m := n.ContractionCacheStats()
		hits0, miss0 = hits0+h, miss0+m
	}
	var sampleD, evalD, scoreD time.Duration
	var sampled, scored int
	estExtra := map[string]time.Duration{}
	estTrials := map[string]int{}
	for i, j := range ops {
		if mix64(seed^uint64(j.ID)^0x70726f6265)%sweepProbeEvery != 0 || fps[i] == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		net := networkOf(env.w, j.Network)
		cfg := env.config(j, 1)
		plan, err := failure.Compile(net, cfg.Model, cfg.SpacingKm)
		if err != nil {
			return fmt.Errorf("probe op %d: %w", j.ID, err)
		}
		top := rec.Begin("probe.decompose", -1, j.ID)
		sp := rec.Begin("topology.contract", top, j.ID)
		plan.Contraction()
		rec.End(sp)

		var bs failure.BatchScratch
		bs.Grow(plan)
		var cs crosslayer.Scratch
		if cfg.CrossLayer != nil {
			cs.Grow(cfg.CrossLayer)
		}
		root := xrand.New(cfg.Seed)
		res := sim.Result{Network: net.Name, Model: plan.ModelName(), SpacingKm: plan.SpacingKm(),
			Outcomes: make([]failure.Outcome, sweepTrials)}
		if cfg.Estimator != nil {
			res.LogWeights = make([]float64, sweepTrials)
			res.Estimator = cfg.Estimator.EstimatorName()
		}
		if cfg.CrossLayer != nil {
			res.Cross = make([]crosslayer.Score, sweepTrials)
		}
		timed := func(name string, f func()) time.Duration {
			s := rec.Begin(name, top, j.ID)
			t := time.Now()
			f()
			d := time.Since(t)
			rec.End(s)
			return d
		}
		for t0 := 0; t0 < sweepTrials; t0 += failure.MaxBatch {
			n := min(sweepTrials-t0, failure.MaxBatch)
			plain := timed("failure.sample", func() { plan.SampleBatch(&bs, root, uint64(t0), n) })
			sampleD += plain
			sampled += n
			if cfg.Estimator != nil {
				d := timed("rare.sample."+j.Est, func() {
					cfg.Estimator.SampleBlock(plan, &bs, root, uint64(t0), n, res.LogWeights[t0:t0+n])
				})
				estExtra[j.Est] += d - plain
				estTrials[j.Est] += n
			}
			evalD += timed("failure.evaluate", func() { plan.EvaluateBatch(&bs, n, res.Outcomes[t0:t0+n]) })
			if cfg.CrossLayer != nil {
				scoreD += timed("crosslayer.score", func() { cfg.CrossLayer.ScoreBatch(&bs, n, res.Cross[t0:t0+n], &cs) })
				scored += n
			}
		}
		rec.End(top)
		if fp := res.Fingerprint(); fp != fps[i] {
			o.problem("op %d: block decomposition fingerprint %016x, timed run %016x", j.ID, fp, fps[i])
		}
	}
	var hits, miss uint64
	for _, n := range env.w.Networks() {
		h, m := n.ContractionCacheStats()
		hits, miss = hits+h, miss+m
	}
	pl := o.PerLayer
	pl["topology.contraction_hits"] = float64(hits - hits0)
	pl["topology.contraction_misses"] = float64(miss - miss0)
	if hits+miss > hits0+miss0 {
		pl["topology.contraction_hit_ratio"] = float64(hits-hits0) / float64(hits+miss-hits0-miss0)
	}
	perTrial := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	pl["failure.sample_ns_per_trial"] = perTrial(sampleD, sampled)
	pl["failure.evaluate_ns_per_trial"] = perTrial(evalD, sampled)
	pl["crosslayer.score_ns_per_trial"] = perTrial(scoreD, scored)
	pl["rare.is_ns_per_trial"] = perTrial(estExtra["is"], estTrials["is"])
	pl["rare.qmc_ns_per_trial"] = perTrial(estExtra["qmc"], estTrials["qmc"])
	return nil
}
