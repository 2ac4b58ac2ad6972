// Package partition implements the §5.3 / §5.1 extensions: analysing how
// the Internet fragments after a storm, and recommending low-latitude
// cable additions that keep the partitions stitched together (the paper's
// guidance: add capacity in lower latitudes and more links through Central
// and South America).
package partition

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gicnet/internal/core"
	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Fragmentation summarises one post-storm partition realisation.
type Fragmentation struct {
	// Components is the number of connected components among nodes that
	// still have at least one live cable.
	Components int
	// LargestFrac is the largest component's share of connected nodes.
	LargestFrac float64
	// IsolatedNodes counts nodes with every cable dead.
	IsolatedNodes int
	// RegionSplit counts, per region, how many distinct components its
	// nodes fall into — the paper's "potentially disconnected landmasses".
	RegionSplit map[geo.Region]int
}

// Analyze computes the fragmentation of a network under a dead-cable set.
// It is the exact full-graph reference: labels come from a fresh
// Components pass over every edge. The Monte Carlo loop in
// MeanFragmentation produces identical summaries through the plan's core
// contraction instead.
func Analyze(net *topology.Network, cableDead graph.Bitset) (*Fragmentation, error) {
	if len(cableDead) != graph.BitsetWords(len(net.Cables)) {
		return nil, errors.New("partition: dead-cable set length mismatch")
	}
	labels, _ := net.Graph().Components(net.DeadEdgeBitsInto(nil, cableDead))
	return aggregate(net, cableDead, func(i int) int { return labels[i] }), nil
}

// aggregate folds one realisation's component labelling into a
// Fragmentation. labelOf must return a label equal for two nodes exactly
// when they share a component; the label values themselves are free, which
// is what lets the contracted union-find (labels are supernode roots) and
// the full-graph labelling (labels are dense component indices) share this
// code and produce identical output.
func aggregate(net *topology.Network, cableDead graph.Bitset, labelOf func(i int) int) *Fragmentation {
	g := net.Graph()
	// Only nodes with a live cable participate in "components".
	iso := map[int]bool{}
	for _, n := range net.UnreachableNodes(cableDead) {
		iso[n] = true
	}
	compSet := map[int]int{}
	regionComps := map[geo.Region]map[int]bool{}
	connected := 0
	for i, nd := range net.Nodes {
		if iso[i] || g.Degree(graph.NodeID(i)) == 0 {
			continue
		}
		connected++
		label := labelOf(i)
		compSet[label]++
		if nd.HasCoord {
			r := geo.RegionOf(nd.Coord)
			if regionComps[r] == nil {
				regionComps[r] = map[int]bool{}
			}
			regionComps[r][label] = true
		}
	}
	largest := 0
	for _, n := range compSet {
		if n > largest {
			largest = n
		}
	}
	f := &Fragmentation{
		Components:    len(compSet),
		IsolatedNodes: len(iso),
		RegionSplit:   map[geo.Region]int{},
	}
	if connected > 0 {
		f.LargestFrac = float64(largest) / float64(connected)
	}
	for r, comps := range regionComps {
		f.RegionSplit[r] = len(comps)
	}
	return f
}

// MeanFragmentation averages fragmentation over Monte Carlo trials.
func MeanFragmentation(net *topology.Network, m failure.Model, spacingKm float64, trials int, seed uint64) (*Fragmentation, error) {
	if trials <= 0 {
		return nil, errors.New("partition: trials must be positive")
	}
	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return nil, err
	}
	// Per-trial components run on the plan's core contraction: the dead
	// cable bitset is the query mask and only the at-risk frontier is
	// unioned. aggregate makes the summaries identical to Analyze's (the
	// contracted union-find roots are a valid labelling), which
	// TestMeanFragmentationContractedMatchesAnalyze pins trial by trial.
	cc := plan.Contraction()
	scratch := net.Graph().NewScratch()
	root := xrand.New(seed)
	agg := &Fragmentation{RegionSplit: map[geo.Region]int{}}
	regionTotals := map[geo.Region]float64{}
	var comps, largest, isolated float64
	var batch failure.BatchScratch
	batch.Grow(plan)
	for t0 := 0; t0 < trials; t0 += failure.MaxBatch {
		bn := trials - t0
		if bn > failure.MaxBatch {
			bn = failure.MaxBatch
		}
		plan.SampleBatch(&batch, root, uint64(t0), bn)
		for b := 0; b < bn; b++ {
			dead := batch.Row(b)
			uf := scratch.ComponentsCore(cc, dead)
			f := aggregate(net, dead, func(i int) int {
				return uf.Find(int(cc.Super(graph.NodeID(i))))
			})
			comps += float64(f.Components)
			largest += f.LargestFrac
			isolated += float64(f.IsolatedNodes)
			for r, n := range f.RegionSplit {
				regionTotals[r] += float64(n)
			}
		}
	}
	n := float64(trials)
	agg.Components = int(comps/n + 0.5)
	agg.LargestFrac = largest / n
	agg.IsolatedNodes = int(isolated/n + 0.5)
	for r, total := range regionTotals {
		agg.RegionSplit[r] = int(total/n + 0.5)
	}
	return agg, nil
}

// Candidate is a proposed new low-latitude cable.
type Candidate struct {
	From, To string // anchor names
	LengthKm float64
	// MaxAbsLat of the two endpoints: drives the survival probability.
	MaxAbsLat float64
	// SurvivalProb under the reference model.
	SurvivalProb float64
	// Benefit is the measured improvement in cross-partition survival
	// (filled by Recommend).
	Benefit float64
}

// Recommend proposes up to n new cables between anchor pairs, favouring
// low-latitude routes (both endpoints below the mid-band cut) that bridge
// different regions, ranked by the connectivity benefit they add between
// the two probe targets under the model. Probes take core.Resolve's
// target grammar (country code, "region:<name>" or "city:<name>"). It
// mutates nothing: each candidate is evaluated on a copy of the network.
func Recommend(w *dataset.World, m failure.Model, spacingKm float64, trials int, seed uint64, n int, probeA, probeB string) ([]Candidate, error) {
	if n <= 0 {
		return nil, errors.New("partition: need n > 0")
	}
	net := w.Submarine
	base, err := pairSurvival(net, m, spacingKm, trials, seed, probeA, probeB)
	if err != nil {
		return nil, err
	}

	var cands []Candidate
	for _, from := range dataset.Anchors() {
		if from.Coord.AbsLat() >= geo.MidBandCut {
			continue
		}
		for _, to := range dataset.Anchors() {
			if to.Name <= from.Name || to.Coord.AbsLat() >= geo.MidBandCut {
				continue
			}
			if geo.RegionOf(from.Coord) == geo.RegionOf(to.Coord) {
				continue // bridges must cross regions
			}
			d := geo.Haversine(from.Coord, to.Coord) * 1.2
			if d < 3000 || d > 12000 {
				continue // too short to matter / too long to survive
			}
			cands = append(cands, Candidate{
				From: from.Name, To: to.Name, LengthKm: d,
				MaxAbsLat: maxf(from.Coord.AbsLat(), to.Coord.AbsLat()),
			})
		}
	}
	// Pre-rank by analytic survival x probe relevance, then evaluate the
	// top slice by simulation (evaluating all ~1000 candidates would be
	// wasteful). Relevance: a bridge can only help the probe pair if its
	// landings sit near the probes' nodes — one end near each side.
	geom := newAugmentGeometry(net, probeA, probeB)
	prelim := make([]float64, len(cands))
	for i := range cands {
		p, err := hypotheticalDeathProb(net, m, spacingKm, cands[i], geom.backhaul)
		if err != nil {
			return nil, err
		}
		cands[i].SurvivalProb = 1 - p
		fromA, okA := dataset.AnchorByName(cands[i].From)
		toA, _ := dataset.AnchorByName(cands[i].To)
		if !okA {
			continue
		}
		// Best assignment of the two endpoints to the two probe sides.
		d1 := geom.probeDist(fromA, 0) + geom.probeDist(toA, 1)
		d2 := geom.probeDist(fromA, 1) + geom.probeDist(toA, 0)
		d := d1
		if d2 < d {
			d = d2
		}
		relevance := 1 / (1 + d/4000)
		prelim[i] = cands[i].SurvivalProb * relevance
	}
	sort.Sort(&byScore{cands, prelim})
	limit := 4 * n
	if limit > len(cands) {
		limit = len(cands)
	}
	evaluated := cands[:limit]
	for i := range evaluated {
		augmented, err := withCandidateVia(net, evaluated[i], geom.backhaul)
		if err != nil {
			return nil, err
		}
		after, err := pairSurvival(augmented, m, spacingKm, trials, seed, probeA, probeB)
		if err != nil {
			return nil, err
		}
		evaluated[i].Benefit = after - base
	}
	sort.Slice(evaluated, func(i, j int) bool { return evaluated[i].Benefit > evaluated[j].Benefit })
	if len(evaluated) > n {
		evaluated = evaluated[:n]
	}
	return evaluated, nil
}

// augmentGeometry memoises, for one Recommend call on one fixed network,
// the geometry every candidate shares: each anchor's backhaul node
// (nearestOfCountry, a Haversine scan over every node) and each anchor's
// distance to either probe side (minDist). Every entry is the function it
// caches evaluated on the same inputs, so memoising changes no answer.
// It is only valid while the network does not grow: Compare, which
// appends candidates one by one, keeps the uncached lookup.
type augmentGeometry struct {
	net     *topology.Network
	nearest map[string]int
	probes  [2][]geo.Coord
	dist    [2]map[string]float64
}

func newAugmentGeometry(net *topology.Network, probeA, probeB string) *augmentGeometry {
	return &augmentGeometry{
		net:     net,
		nearest: map[string]int{},
		probes:  [2][]geo.Coord{probeCoords(net, probeA), probeCoords(net, probeB)},
		dist:    [2]map[string]float64{{}, {}},
	}
}

// backhaul is nearestOfCountry(net, a), computed once per anchor.
func (g *augmentGeometry) backhaul(a dataset.Anchor) int {
	if i, ok := g.nearest[a.Name]; ok {
		return i
	}
	i := nearestOfCountry(g.net, a)
	g.nearest[a.Name] = i
	return i
}

// probeDist is minDist from anchor a to probe side 0 (probeA) or 1
// (probeB), computed once per (anchor, side).
func (g *augmentGeometry) probeDist(a dataset.Anchor, side int) float64 {
	if d, ok := g.dist[side][a.Name]; ok {
		return d
	}
	d := minDist(a.Coord, g.probes[side])
	g.dist[side][a.Name] = d
	return d
}

// byScore sorts candidates and their scores together, descending.
type byScore struct {
	cands  []Candidate
	scores []float64
}

func (b *byScore) Len() int           { return len(b.cands) }
func (b *byScore) Less(i, j int) bool { return b.scores[i] > b.scores[j] }
func (b *byScore) Swap(i, j int) {
	b.cands[i], b.cands[j] = b.cands[j], b.cands[i]
	b.scores[i], b.scores[j] = b.scores[j], b.scores[i]
}

// probeCoords resolves a probe target to the coordinates of its located
// nodes. A target that matches no node has no coordinates, which minDist
// reads as infinitely far; Recommend has already rejected such probes
// through pairSurvival.
func probeCoords(net *topology.Network, target string) []geo.Coord {
	nodes, _ := core.Resolve(net, core.Target(target))
	out := make([]geo.Coord, 0, len(nodes))
	for _, n := range nodes {
		if net.Nodes[n].HasCoord {
			out = append(out, net.Nodes[n].Coord)
		}
	}
	return out
}

// minDist returns the smallest haversine distance from c to any of pts
// (infinite if pts is empty).
func minDist(c geo.Coord, pts []geo.Coord) float64 {
	best := 1e18
	for _, p := range pts {
		if d := geo.Haversine(c, p); d < best {
			best = d
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// hypotheticalDeathProb computes the death probability a candidate cable
// would have: its repeaters take the model's probability for a synthetic
// cable whose highest endpoint is the candidate's.
func hypotheticalDeathProb(net *topology.Network, m failure.Model, spacingKm float64, c Candidate, backhaul func(dataset.Anchor) int) (float64, error) {
	tmp, err := withCandidateVia(net, c, backhaul)
	if err != nil {
		return 0, err
	}
	return failure.CableDeathProb(tmp, m, spacingKm, len(tmp.Cables)-1)
}

// withCandidate returns a copy of net with the candidate cable appended,
// each landing tied to nearestOfCountry(net, anchor).
func withCandidate(net *topology.Network, c Candidate) (*topology.Network, error) {
	return withCandidateVia(net, c, func(a dataset.Anchor) int { return nearestOfCountry(net, a) })
}

// withCandidateVia is withCandidate with the landings' backhaul nodes
// chosen by backhaul, which must return nearestOfCountry(net, anchor).
func withCandidateVia(net *topology.Network, c Candidate, backhaul func(dataset.Anchor) int) (*topology.Network, error) {
	fromA, okA := dataset.AnchorByName(c.From)
	toA, okB := dataset.AnchorByName(c.To)
	if !okA || !okB {
		return nil, fmt.Errorf("partition: unknown anchor %q or %q", c.From, c.To)
	}
	cp := &topology.Network{Name: net.Name + "+candidate"}
	cp.Nodes = append(cp.Nodes, net.Nodes...)
	cp.Cables = append(cp.Cables, net.Cables...)
	a := len(cp.Nodes)
	cp.Nodes = append(cp.Nodes, topology.Node{
		Name: "cand-" + c.From, Coord: fromA.Coord, HasCoord: true, Country: fromA.Country,
	})
	b := len(cp.Nodes)
	cp.Nodes = append(cp.Nodes, topology.Node{
		Name: "cand-" + c.To, Coord: toA.Coord, HasCoord: true, Country: toA.Country,
	})
	// Tie the new landing stations into the existing network with short
	// backhaul segments to the nearest existing node of the same country.
	cp.Cables = append(cp.Cables, topology.Cable{
		Name: fmt.Sprintf("candidate-%s-%s", c.From, c.To),
		Segments: []topology.Segment{
			{A: a, B: b, LengthKm: c.LengthKm},
			{A: a, B: backhaul(fromA), LengthKm: 50},
			{A: b, B: backhaul(toA), LengthKm: 50},
		},
		KnownLength: true,
	})
	return cp, nil
}

// nearestOfCountry finds the nearest existing node in the anchor's
// country, falling back to the globally nearest node with coordinates.
func nearestOfCountry(net *topology.Network, a dataset.Anchor) int {
	best, bestD := -1, 1e18
	for i, nd := range net.Nodes {
		if !nd.HasCoord {
			continue
		}
		d := geo.Haversine(nd.Coord, a.Coord)
		if nd.Country == a.Country {
			d /= 10 // strong preference for same-country backhaul
		}
		if d < bestD {
			bestD, best = d, i
		}
	}
	return best
}

// pairSurvival is a local Monte Carlo of target-set connectivity (the
// core package owns the richer version; this one works on arbitrary
// networks including augmented copies, so the probes resolve against
// net itself). The trial loop is sim.PairSurvival on the plan's core
// contraction.
func pairSurvival(net *topology.Network, m failure.Model, spacingKm float64, trials int, seed uint64, probeA, probeB string) (float64, error) {
	if trials <= 0 {
		return 0, errors.New("partition: trials must be positive")
	}
	a, err := core.ResolveIDs(net, core.Target(probeA))
	if err != nil {
		return 0, err
	}
	b, err := core.ResolveIDs(net, core.Target(probeB))
	if err != nil {
		return 0, err
	}
	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return 0, err
	}
	return sim.PairSurvival(context.Background(), plan, trials, seed, a, b)
}

// Compare runs MeanFragmentation before and after adding the candidates,
// returning (before, after). Used by the topology-design ablation.
func Compare(ctx context.Context, w *dataset.World, m failure.Model, spacingKm float64, trials int, seed uint64, cands []Candidate) (before, after *Fragmentation, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	net := w.Submarine
	before, err = MeanFragmentation(net, m, spacingKm, trials, seed)
	if err != nil {
		return nil, nil, err
	}
	augmented := net
	for _, c := range cands {
		augmented, err = withCandidate(augmented, c)
		if err != nil {
			return nil, nil, err
		}
	}
	after, err = MeanFragmentation(augmented, m, spacingKm, trials, seed)
	if err != nil {
		return nil, nil, err
	}
	return before, after, nil
}
