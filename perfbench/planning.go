package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/gic"
	"gicnet/internal/partition"
	"gicnet/internal/recovery"
	"gicnet/internal/routing"
	"gicnet/internal/scenario"
	"gicnet/internal/shutdown"
	"gicnet/internal/xrand"
)

// planning: closed loop, one client, a seeded shuffle of the greedy
// planners on the submarine network. The mix is built so that the median
// and the ten-beyond tail each land inside one op class, whose latencies
// do not overlap the neighbouring classes':
//
//	class                      count  latency (2-core Xeon)  sorted ranks
//	shutdown.PlanShutdown        14   < 1 ms                 0-13
//	routing.Route                16   5-30 ms                14-29
//	recovery.PlanRecovery        44   80-170 ms              30-73    <- p50 (ranks 51, 52)
//	recovery.FleetSizeSweep      14   160-300 ms             74-87
//	scenario.Run                 14   650-750 ms             88-101   <- tail (rank 93, p90.4)
//	partition.Recommend           2   ~2 s                   102-103
//
// Recovery and fleet sweeps run on sampled S1 damage at 150 km spacing,
// routing on sampled S1 and S2 damage at every spacing; scenarios are the
// two Carrington-class storms at 150 km. Each class runs one input family,
// so no percentile falls on a boundary between two sub-populations. Damage is sampled while building the
// inputs, before timing: the planners see only the generated inputs.

var planUnit = []struct {
	kind  string
	count int
}{
	{"shutdown.plan", 14},
	{"routing.route", 16},
	{"recovery.plan", 44},
	{"recovery.fleet_sweep", 14},
	{"scenario.run", 14},
	{"partition.recommend", 2},
}

const (
	// planUnitSeconds is the nominal time of one unit of the mix on a
	// 2-core Xeon @ 2.10 GHz; the run makes seconds/planUnitSeconds units.
	planUnitSeconds = 25.0
	planSeverity    = 0.1
	// planRefOps is how many leading ops a traced run first times
	// untraced, for the tracing overhead.
	planRefOps = 25
	// planReplayEvery samples about one cheap op in this many for the
	// determinism replay after the timed phase.
	planReplayEvery = 8
)

// pinnedPlanDigest is the answer digest of the first unit for seed
// defaultSeed.
const pinnedPlanDigest = "c0c88444cd754545"

var (
	planStorms     = []gic.Storm{gic.Carrington, gic.NewYorkRailroad, gic.Quebec, gic.Moderate}
	planSpacings   = []float64{50, 100, 150}
	planProbePairs = [][2]string{{"nz", "us"}, {"br", "za"}, {"in", "jp"}, {"sg", "gb"}, {"au", "us"}, {"cl", "us"}}
	planFleetSizes = []int{10, 20}
)

// planJob is one planner call with its generated inputs.
type planJob struct {
	ID      int       `json:"id"`
	Kind    string    `json:"kind"`
	Model   string    `json:"model,omitempty"`
	Spacing float64   `json:"spacing_km"`
	Storm   string    `json:"storm,omitempty"`
	Probe   [2]string `json:"probe,omitempty"`
	Seed    uint64    `json:"seed"`
}

// planOps builds the op list: units seeded shuffles of the mix, each op
// with its own seed. Units are drawn in sequence from one stream, so a
// longer run extends a shorter one's list without changing it.
func planOps(seed uint64, units int) []planJob {
	rng := xrand.New(seed).Split(0x706c616e6e696e67) // "planning"
	var ops []planJob
	for u := 0; u < units; u++ {
		var unit []planJob
		for _, c := range planUnit {
			for i := 0; i < c.count; i++ {
				j := planJob{Kind: c.kind, Seed: rng.Uint64()}
				switch c.kind {
				case "shutdown.plan":
					j.Storm = planStorms[i%len(planStorms)].Name
					j.Spacing = planSpacings[(i/len(planStorms))%len(planSpacings)]
				case "routing.route":
					j.Model = []string{"s1", "s2"}[i%2]
					j.Spacing = planSpacings[(i/2)%len(planSpacings)]
				case "recovery.plan":
					j.Model, j.Spacing = "s1", 150
				case "recovery.fleet_sweep":
					j.Model, j.Spacing = "s1", 150
				case "scenario.run":
					j.Storm, j.Spacing = planStorms[i%2].Name, 150
				case "partition.recommend":
					j.Model, j.Spacing = []string{"s1", "s2"}[i%2], 150
					j.Probe = planProbePairs[rng.Intn(len(planProbePairs))]
				}
				unit = append(unit, j)
			}
		}
		rng.Shuffle(len(unit), func(a, b int) { unit[a], unit[b] = unit[b], unit[a] })
		for i := range unit {
			unit[i].ID = len(ops)
			ops = append(ops, unit[i])
		}
	}
	return ops
}

func stormByName(name string) gic.Storm {
	for _, s := range planStorms {
		if s.Name == name {
			return s
		}
	}
	return gic.Carrington
}

// planInput is an op's generated damage: the dead cables and the repair
// backlog sampled from them.
type planInput struct {
	dead   []bool
	faults []recovery.Fault
}

// planInputs samples each damage-driven op's dead cables from its model's
// compiled plan and seed, and the backlog from the same stream.
func planInputs(w *dataset.World, ops []planJob) ([]planInput, error) {
	net := w.Submarine
	plans := map[string]*failure.Plan{}
	in := make([]planInput, len(ops))
	for i, j := range ops {
		if j.Kind != "routing.route" && j.Kind != "recovery.plan" && j.Kind != "recovery.fleet_sweep" {
			continue
		}
		key := fmt.Sprintf("%s/%g", j.Model, j.Spacing)
		plan := plans[key]
		if plan == nil {
			var err error
			if plan, err = failure.Compile(net, modelFor(j.Model, 0), j.Spacing); err != nil {
				return nil, err
			}
			plans[key] = plan
		}
		rng := xrand.New(j.Seed)
		bits := plan.Sample(rng)
		dead := make([]bool, len(net.Cables))
		for ci := range dead {
			dead[ci] = bits.Get(ci)
		}
		in[i].dead = dead
		if j.Kind != "routing.route" {
			f, err := recovery.FaultsFrom(net, dead, j.Spacing, planSeverity, rng)
			if err != nil {
				return nil, err
			}
			in[i].faults = f
		}
	}
	return in, nil
}

// fpWriter hashes an op's output into its answer fingerprint.
type fpWriter struct{ h hash.Hash64 }

func newFP(kind string) *fpWriter {
	f := &fpWriter{fnv.New64a()}
	f.s(kind)
	return f
}
func (f *fpWriter) s(v string)  { f.h.Write([]byte(v)); f.h.Write([]byte{0}) }
func (f *fpWriter) i(v int)     { f.u(uint64(v)) }
func (f *fpWriter) x(v float64) { f.u(math.Float64bits(v)) }
func (f *fpWriter) u(v uint64) {
	var b [8]byte
	for k := range b {
		b[k] = byte(v >> (8 * k))
	}
	f.h.Write(b[:])
}
func (f *fpWriter) sum() uint64 { return f.h.Sum64() }

func sortedKeys[K int | float64, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
	return ks
}

func inUnit(v float64) bool { return v >= 0 && v <= 1 }

// runPlanOp calls one planner and returns its answer fingerprint, after
// checking the invariants every correct answer satisfies.
func runPlanOp(w *dataset.World, j planJob, in planInput) (uint64, error) {
	net := w.Submarine
	f := newFP(j.Kind)
	switch j.Kind {
	case "shutdown.plan":
		opts := shutdown.DefaultOptions()
		opts.SpacingKm = j.Spacing
		p, err := shutdown.PlanShutdown(net, stormByName(j.Storm), opts)
		if err != nil {
			return 0, err
		}
		if len(p.Actions) != len(net.Cables) || p.PowerOffCount() > p.Budget {
			return 0, fmt.Errorf("shutdown plan: %d actions for %d cables, %d power-offs over budget %d",
				len(p.Actions), len(net.Cables), p.PowerOffCount(), p.Budget)
		}
		f.i(p.Budget)
		f.x(p.ExpectedSurvivorsUnplanned)
		f.x(p.ExpectedSurvivorsPlanned)
		for _, a := range p.Actions {
			if !inUnit(a.DeathOn) || !inUnit(a.DeathOff) {
				return 0, fmt.Errorf("shutdown plan: cable %s death probabilities %v/%v", a.Cable, a.DeathOn, a.DeathOff)
			}
			f.s(a.Cable)
			if a.PowerOff {
				f.i(1)
			}
			f.x(a.DeathOn)
			f.x(a.DeathOff)
		}
	case "routing.route":
		r, err := routing.Route(net, routing.DefaultDemands(), in.dead)
		if err != nil {
			return 0, err
		}
		if !(r.Total > 0 && r.Stranded >= 0 && r.Stranded <= r.Total*(1+1e-12)) {
			return 0, fmt.Errorf("route: stranded %v of total %v", r.Stranded, r.Total)
		}
		f.x(r.Stranded)
		f.x(r.Total)
		for _, l := range r.SegmentLoad {
			f.x(l)
		}
	case "recovery.plan":
		s, err := recovery.PlanRecovery(net, in.faults, recovery.DefaultFleet(), recovery.DefaultOptions())
		if err != nil {
			return 0, err
		}
		if len(s.Events) != len(in.faults) {
			return 0, fmt.Errorf("recovery: %d repairs for %d faults", len(s.Events), len(in.faults))
		}
		f.x(s.MakespanDays)
		for _, e := range s.Events {
			if e.Start > e.Done || e.Done > s.MakespanDays {
				return 0, fmt.Errorf("recovery: repair of %s runs %v..%v past makespan %v", e.Cable, e.Start, e.Done, s.MakespanDays)
			}
			f.s(e.Ship)
			f.s(e.Cable)
			f.x(e.Start)
			f.x(e.Done)
			f.i(e.NodesRestored)
		}
		for _, k := range sortedKeys(s.RestoredAt) {
			f.x(k)
			f.x(s.RestoredAt[k])
		}
	case "recovery.fleet_sweep":
		m, err := recovery.FleetSizeSweep(net, in.faults, planFleetSizes, recovery.DefaultOptions())
		if err != nil {
			return 0, err
		}
		if len(m) != len(planFleetSizes) {
			return 0, fmt.Errorf("fleet sweep: %d answers for %d sizes", len(m), len(planFleetSizes))
		}
		for _, k := range sortedKeys(m) {
			if !(m[k] >= 0) || math.IsInf(m[k], 0) {
				return 0, fmt.Errorf("fleet sweep: %d ships restore in %v days", k, m[k])
			}
			f.i(k)
			f.x(m[k])
		}
	case "scenario.run":
		cfg := scenario.DefaultConfig()
		cfg.Storm = stormByName(j.Storm)
		cfg.SpacingKm = j.Spacing
		cfg.Seed = j.Seed
		r, err := scenario.Run(w, cfg)
		if err != nil {
			return 0, err
		}
		if r.CablesDead > len(net.Cables) || r.FaultCount != r.CablesDead || !inUnit(r.TrafficStranded) {
			return 0, fmt.Errorf("scenario: %d dead cables, %d faults, stranded %v", r.CablesDead, r.FaultCount, r.TrafficStranded)
		}
		f.i(r.CablesDead)
		f.i(r.NodesIsolated)
		f.i(r.StationsDark)
		f.i(r.FaultCount)
		f.x(r.TrafficStranded)
		f.i(r.Fragmentation.Components)
		f.x(r.Fragmentation.LargestFrac)
		if r.Recovery != nil {
			f.x(r.Recovery.MakespanDays)
		}
		if r.Economic != nil {
			f.x(r.Economic.TotalUSD)
		}
	case "partition.recommend":
		cands, err := partition.Recommend(w, modelFor(j.Model, 0), j.Spacing, 8, j.Seed, 3, j.Probe[0], j.Probe[1])
		if err != nil {
			return 0, err
		}
		if len(cands) > 3 {
			return 0, fmt.Errorf("recommend: %d candidates, asked for 3", len(cands))
		}
		for k, c := range cands {
			if !inUnit(c.SurvivalProb) || (k > 0 && c.Benefit > cands[k-1].Benefit) {
				return 0, fmt.Errorf("recommend: candidate %s-%s survival %v benefit %v out of order", c.From, c.To, c.SurvivalProb, c.Benefit)
			}
			f.s(c.From)
			f.s(c.To)
			f.x(c.LengthKm)
			f.x(c.SurvivalProb)
			f.x(c.Benefit)
		}
	default:
		return 0, fmt.Errorf("unknown planning op %q", j.Kind)
	}
	return f.sum(), nil
}

func runPlanning(cfg runConfig) (*outcome, error) {
	var rec *Recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	o := &outcome{PerLayer: map[string]float64{}, Diag: map[string]any{}}
	w, setup, err := setupRepeated(rec, func(parent int) (*dataset.World, error) {
		return generateWorld(rec, parent)
	})
	if err != nil {
		return nil, err
	}
	o.SetupS = setup
	if cfg.Trace {
		if err := datasetProbe(rec, w, o.PerLayer, o); err != nil {
			return nil, err
		}
	}

	units := int(math.Max(1, math.Round(cfg.Seconds/planUnitSeconds)))
	ops := planOps(cfg.Seed, units)
	t := time.Now()
	inputs, err := planInputs(w, ops)
	if err != nil {
		return nil, fmt.Errorf("planning inputs: %w", err)
	}
	o.Diag["inputs_s"] = time.Since(t).Seconds()
	unitLen := len(ops) / units

	var refWall time.Duration
	refFP := map[int]uint64{}
	if cfg.Trace {
		runtime.GC()
		t := time.Now()
		for _, j := range ops[:planRefOps] {
			fp, err := runPlanOp(w, j, inputs[j.ID])
			if err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", j.ID, j.Kind, err)
			}
			refFP[j.ID] = fp
		}
		refWall = time.Since(t)
	}

	fps := make([]uint64, len(ops))
	lat := make([]float64, len(ops))
	var prefixWall time.Duration
	h0, m0 := w.Submarine.ContractionCacheStats()
	runtime.GC()
	before := readRuntime()
	cpu0 := readCPU()
	start := time.Now()
	for i, j := range ops {
		t := time.Now()
		sp := rec.Begin(j.Kind, -1, j.ID)
		fp, err := runPlanOp(w, j, inputs[i])
		rec.End(sp)
		lat[i] = ms(time.Since(t))
		o.Attempted++
		if err != nil {
			o.Failed++
			lat[i] = math.Inf(1)
			o.problem("op %d (%s): %v", j.ID, j.Kind, err)
		}
		fps[i] = fp
		if i == planRefOps-1 {
			prefixWall = time.Since(start)
		}
	}
	o.WallS = time.Since(start).Seconds()
	cpuDiag(o.Diag, cpu0, readCPU())
	after := readRuntime()
	h1, m1 := w.Submarine.ContractionCacheStats()
	o.MemMB = liveHeapMB()
	o.Lat = summarize(lat)
	o.Cold = o.Lat // no planner reuses an earlier answer

	kinds := make([]string, len(ops))
	for i, j := range ops {
		kinds[i] = j.Kind
	}
	o.Diag["half_drift"] = halfDriftBy(lat, kinds)
	o.Diag["gen_late_ms"] = 0.0 // closed loop: no schedule to fall behind
	o.Diag["ops"] = len(ops)
	o.Diag["units"] = units
	o.Diag["p50_class"], o.Diag["tail_class"] = rankClasses(ops, lat)
	var first, all digest
	for i, j := range ops {
		all.add(j.ID, fps[i])
		if i < unitLen {
			first.add(j.ID, fps[i])
		}
	}
	o.Diag["first_unit_digest"] = first.String()
	o.Diag["digest"] = all.String()
	if cfg.Seed == defaultSeed && first.String() != pinnedPlanDigest {
		o.problem("first-unit digest %s, pinned %s", first, pinnedPlanDigest)
	}

	if cfg.Trace {
		for id, fp := range refFP {
			if fps[id] != fp {
				o.problem("op %d: traced answer %016x differs from untraced %016x", id, fps[id], fp)
			}
		}
		o.Overhead = float64(prefixWall) / float64(refWall)
		o.OverBase = fmt.Sprintf("first %d ops: traced %.3fs / untraced %.3fs", planRefOps, prefixWall.Seconds(), refWall.Seconds())
		runtimeLayer(o.PerLayer, before, after, len(ops))
		o.PerLayer["topology.contraction_hits"] = float64(h1 - h0)
		o.PerLayer["topology.contraction_misses"] = float64(m1 - m0)
		if h1+m1 > h0+m0 {
			o.PerLayer["topology.contraction_hit_ratio"] = float64(h1-h0) / float64(h1+m1-h0-m0)
		}
	}

	// Determinism replay of a seeded sample of the cheap ops.
	for i, j := range ops {
		if j.Kind == "scenario.run" || j.Kind == "partition.recommend" || j.Kind == "recovery.fleet_sweep" ||
			mix64(cfg.Seed^uint64(j.ID))%planReplayEvery != 0 || fps[i] == 0 {
			continue
		}
		fp, err := runPlanOp(w, j, inputs[i])
		if err != nil || fp != fps[i] {
			o.Failed++
			o.problem("op %d (%s): replay gave %016x (%v), timed run %016x", j.ID, j.Kind, fp, err, fps[i])
		}
	}
	o.Spans = rec.Spans()
	if cfg.Trace {
		fillSpanLayers(o.PerLayer, o.Spans)
	}
	return o, nil
}

// rankClasses names the op classes found at the median's and the tail's
// sorted ranks, with the classes of their five neighbours on either side,
// so a reader can see that each percentile sits inside one class.
func rankClasses(ops []planJob, lat []float64) (p50, tail string) {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	around := func(r int) string {
		count := map[string]int{}
		for k := r - 5; k <= r+5; k++ {
			if k >= 0 && k < len(idx) {
				count[ops[idx[k]].Kind]++
			}
		}
		return fmt.Sprintf("%s (window %v)", ops[idx[r]].Kind, count)
	}
	tr, _ := tailRank(len(lat))
	return around(len(lat) / 2), around(tr)
}
