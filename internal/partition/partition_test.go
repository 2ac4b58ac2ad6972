package partition

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

func world(t *testing.T) *dataset.World {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAnalyzeNoFailures(t *testing.T) {
	net := world(t).Submarine
	f, err := Analyze(net, graph.NewBitset(len(net.Cables)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Components != 1 {
		t.Errorf("intact network components = %d, want 1", f.Components)
	}
	if f.LargestFrac != 1 {
		t.Errorf("largest frac = %v", f.LargestFrac)
	}
	if f.IsolatedNodes != 0 {
		t.Errorf("isolated = %d", f.IsolatedNodes)
	}
	for r, n := range f.RegionSplit {
		if n != 1 {
			t.Errorf("region %v split into %d components on intact network", r, n)
		}
	}
}

func TestAnalyzeAllDead(t *testing.T) {
	net := world(t).Submarine
	dead := graph.NewBitset(len(net.Cables))
	dead.SetRange(0, len(net.Cables))
	f, err := Analyze(net, dead)
	if err != nil {
		t.Fatal(err)
	}
	if f.Components != 0 {
		t.Errorf("all-dead components = %d, want 0", f.Components)
	}
	if f.IsolatedNodes != len(net.Nodes) {
		t.Errorf("isolated = %d, want all %d", f.IsolatedNodes, len(net.Nodes))
	}
}

func TestAnalyzeLengthMismatch(t *testing.T) {
	net := world(t).Submarine
	if _, err := Analyze(net, graph.NewBitset(3)); err == nil {
		t.Error("want length mismatch error")
	}
}

func TestMeanFragmentationS1FragmentsMore(t *testing.T) {
	net := world(t).Submarine
	s1, err := MeanFragmentation(net, failure.S1(), 150, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := MeanFragmentation(net, failure.S2(), 150, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Components < s2.Components {
		t.Errorf("S1 components (%d) should be >= S2 (%d)", s1.Components, s2.Components)
	}
	if s1.LargestFrac > s2.LargestFrac {
		t.Errorf("S1 largest frac (%v) should be <= S2 (%v)", s1.LargestFrac, s2.LargestFrac)
	}
	if s1.IsolatedNodes <= s2.IsolatedNodes {
		t.Errorf("S1 isolated (%d) should exceed S2 (%d)", s1.IsolatedNodes, s2.IsolatedNodes)
	}
	if _, err := MeanFragmentation(net, failure.S1(), 150, 0, 1); err == nil {
		t.Error("want trials error")
	}
}

func TestRecommendLowLatitudeBridges(t *testing.T) {
	if testing.Short() {
		t.Skip("candidate search over the full topology skipped in short mode")
	}
	w := world(t)
	cands, err := Recommend(w, failure.S1(), 150, 30, 7, 5, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates recommended")
	}
	for _, c := range cands {
		if c.MaxAbsLat >= geo.MidBandCut {
			t.Errorf("candidate %s-%s reaches %v degrees; must stay low-latitude", c.From, c.To, c.MaxAbsLat)
		}
		if c.SurvivalProb <= 0 || c.SurvivalProb > 1 {
			t.Errorf("candidate survival = %v", c.SurvivalProb)
		}
	}
	// ranked by benefit
	for i := 1; i < len(cands); i++ {
		if cands[i].Benefit > cands[i-1].Benefit+1e-12 {
			t.Error("candidates not ranked by benefit")
			break
		}
	}
	if _, err := Recommend(w, failure.S1(), 150, 5, 7, 0, "us", "gb"); err == nil {
		t.Error("want n error")
	}
}

func TestCompareAugmentationHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("before/after augmentation Monte Carlo skipped in short mode")
	}
	w := world(t)
	cands, err := Recommend(w, failure.S1(), 150, 30, 9, 3, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	before, after, err := Compare(context.Background(), w, failure.S1(), 150, 12, 9, cands)
	if err != nil {
		t.Fatal(err)
	}
	// Adding surviving low-latitude links must not fragment things more.
	if after.LargestFrac < before.LargestFrac-0.02 {
		t.Errorf("augmentation reduced largest component: %v -> %v", before.LargestFrac, after.LargestFrac)
	}
}

func TestPairSurvivalTargets(t *testing.T) {
	net := world(t).Submarine
	if _, err := pairSurvival(net, failure.S2(), 150, 5, 1, "zz", "us"); err == nil {
		t.Error("want unknown target error")
	}
	p, err := pairSurvival(net, failure.Uniform{P: 0}, 150, 5, 1, "us", "region:europe")
	if err != nil || p != 1 {
		t.Errorf("no-failure survival = %v, %v", p, err)
	}
}

// TestRecommendCityProbe checks that bridge probes take the same target
// grammar as the rest of the system: a "city:" probe resolves and yields
// ranked candidates.
func TestRecommendCityProbe(t *testing.T) {
	cands, err := Recommend(world(t), failure.S1(), 150, 5, 1, 2, "city:shanghai", "us")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("city probe returned no candidates")
	}
}

func TestWithCandidateDoesNotMutateOriginal(t *testing.T) {
	net := world(t).Submarine
	nodesBefore, cablesBefore := len(net.Nodes), len(net.Cables)
	c := Candidate{From: "fortaleza", To: "lagos", LengthKm: 6000}
	aug, err := withCandidate(net, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) != nodesBefore || len(net.Cables) != cablesBefore {
		t.Error("original network mutated")
	}
	if len(aug.Nodes) != nodesBefore+2 || len(aug.Cables) != cablesBefore+1 {
		t.Errorf("augmented shape: %d nodes, %d cables", len(aug.Nodes), len(aug.Cables))
	}
	if err := aug.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := withCandidate(net, Candidate{From: "atlantis", To: "lagos"}); err == nil {
		t.Error("want unknown anchor error")
	}
}

func TestAnalyzeSyntheticPartition(t *testing.T) {
	// A hand-built network split into two parts when the bridge dies.
	net := &topology.Network{
		Name: "mini",
		Nodes: []topology.Node{
			{Name: "a1", Coord: geo.Coord{Lat: 50, Lon: 0}, HasCoord: true},
			{Name: "a2", Coord: geo.Coord{Lat: 51, Lon: 1}, HasCoord: true},
			{Name: "b1", Coord: geo.Coord{Lat: -20, Lon: -60}, HasCoord: true},
			{Name: "b2", Coord: geo.Coord{Lat: -21, Lon: -59}, HasCoord: true},
		},
		Cables: []topology.Cable{
			{Name: "a", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 100}}},
			{Name: "b", Segments: []topology.Segment{{A: 2, B: 3, LengthKm: 100}}},
			{Name: "bridge", Segments: []topology.Segment{{A: 1, B: 2, LengthKm: 9000}}},
		},
	}
	bridge := graph.NewBitset(len(net.Cables))
	bridge.Set(2)
	f, err := Analyze(net, bridge)
	if err != nil {
		t.Fatal(err)
	}
	if f.Components != 2 {
		t.Errorf("components = %d, want 2", f.Components)
	}
	if f.LargestFrac != 0.5 {
		t.Errorf("largest frac = %v, want 0.5", f.LargestFrac)
	}
	if f.RegionSplit[geo.RegionEurope] != 1 || f.RegionSplit[geo.RegionSouthAmerica] != 1 {
		t.Errorf("region split = %v", f.RegionSplit)
	}
}

// candidatesFingerprint hashes every field of every candidate in order.
func candidatesFingerprint(cands []Candidate) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cands)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRecommendPinned pins Recommend's ranked candidates for two probe
// pairs.
func TestRecommendPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("candidate search over the full topology skipped in short mode")
	}
	w := world(t)
	for _, tc := range []struct {
		trials         int
		seed           uint64
		n              int
		probeA, probeB string
		want           string
	}{
		{10, 1, 3, "nz", "us", "abd0a21e618fe324"},
		{30, 7, 5, "us", "region:europe", "49ccfda3eadc033f"},
	} {
		cands, err := Recommend(w, failure.S1(), 150, tc.trials, tc.seed, tc.n, tc.probeA, tc.probeB)
		if err != nil {
			t.Fatal(err)
		}
		if got := candidatesFingerprint(cands); got != tc.want {
			t.Errorf("Recommend(%s, %s) fingerprint = %s, want %s", tc.probeA, tc.probeB, got, tc.want)
		}
	}
}

// recommendReference is Recommend without the per-call geometry memo,
// kept as its test oracle: every candidate rescans the network for its
// landings' backhaul nodes and the probe sides for its relevance.
func recommendReference(w *dataset.World, m failure.Model, spacingKm float64, trials int, seed uint64, n int, probeA, probeB string) ([]Candidate, error) {
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
				continue
			}
			d := geo.Haversine(from.Coord, to.Coord) * 1.2
			if d < 3000 || d > 12000 {
				continue
			}
			cands = append(cands, Candidate{
				From: from.Name, To: to.Name, LengthKm: d,
				MaxAbsLat: maxf(from.Coord.AbsLat(), to.Coord.AbsLat()),
			})
		}
	}
	probeACoords := probeCoords(net, probeA)
	probeBCoords := probeCoords(net, probeB)
	prelim := make([]float64, len(cands))
	for i := range cands {
		tmp, err := withCandidate(net, cands[i])
		if err != nil {
			return nil, err
		}
		p, err := failure.CableDeathProb(tmp, m, spacingKm, len(tmp.Cables)-1)
		if err != nil {
			return nil, err
		}
		cands[i].SurvivalProb = 1 - p
		fromA, _ := dataset.AnchorByName(cands[i].From)
		toA, _ := dataset.AnchorByName(cands[i].To)
		d1 := minDist(fromA.Coord, probeACoords) + minDist(toA.Coord, probeBCoords)
		d2 := minDist(fromA.Coord, probeBCoords) + minDist(toA.Coord, probeACoords)
		d := d1
		if d2 < d {
			d = d2
		}
		prelim[i] = cands[i].SurvivalProb / (1 + d/4000)
	}
	sort.Sort(&byScore{cands, prelim})
	limit := 4 * n
	if limit > len(cands) {
		limit = len(cands)
	}
	evaluated := cands[:limit]
	for i := range evaluated {
		augmented, err := withCandidate(net, evaluated[i])
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

// TestAugmentGeometryMatchesDirect diffs every memoised lookup against a
// fresh scan, over random anchors and probe targets on the submarine and
// intertubes networks, asking each anchor twice so cached answers are
// checked too.
func TestAugmentGeometryMatchesDirect(t *testing.T) {
	w := world(t)
	anchors := dataset.Anchors()
	targets := []string{"us", "gb", "nz", "br", "za", "jp", "in", "sg", "region:europe", "region:asia"}
	rng := xrand.New(1921)
	checked := 0
	for _, net := range []*topology.Network{w.Submarine, w.Intertubes} {
		for round := 0; round < 5; round++ {
			probeA, probeB := targets[rng.Intn(len(targets))], targets[rng.Intn(len(targets))]
			geom := newAugmentGeometry(net, probeA, probeB)
			sides := [2][]geo.Coord{probeCoords(net, probeA), probeCoords(net, probeB)}
			for q := 0; q < 2*len(anchors); q++ {
				a := anchors[rng.Intn(len(anchors))]
				if got, want := geom.backhaul(a), nearestOfCountry(net, a); got != want {
					t.Fatalf("%s: backhaul(%s) = %d, direct scan %d", net.Name, a.Name, got, want)
				}
				side := rng.Intn(2)
				if got, want := geom.probeDist(a, side), minDist(a.Coord, sides[side]); got != want {
					t.Fatalf("%s: probeDist(%s, %d) = %v, direct scan %v", net.Name, a.Name, side, got, want)
				}
				checked++
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d lookups checked", checked)
	}
}

// TestRecommendMatchesReference diffs the memoised Recommend against the
// unmemoised oracle, candidate for candidate.
func TestRecommendMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("unmemoised candidate search skipped in short mode")
	}
	w := world(t)
	for _, probes := range [][2]string{{"br", "za"}, {"sg", "gb"}} {
		got, err := Recommend(w, failure.S2(), 100, 6, 3, 2, probes[0], probes[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := recommendReference(w, failure.S2(), 100, 6, 3, 2, probes[0], probes[1])
		if err != nil {
			t.Fatal(err)
		}
		if candidatesFingerprint(got) != candidatesFingerprint(want) {
			t.Errorf("Recommend(%s, %s) = %+v, reference %+v", probes[0], probes[1], got, want)
		}
	}
}
