package topology

import (
	"errors"
	"math"
	"sync"
	"testing"

	"gicnet/internal/geo"
	"gicnet/internal/graph"
)

// testNetwork builds a small network:
//
//	0 (oslo, 59.9N) --- c0 (3000km) --- 1 (nyc, 40.7N)
//	1 --- c1 (500km) --- 2 (miami, 25.8N)
//	c2 branches: 2-3 (7000km), 3-4 (2000km)  [miami - fortaleza - santos]
//	5 (lonely, no cables)
func testNetwork() *Network {
	return &Network{
		Name: "test",
		Nodes: []Node{
			{Name: "oslo", Coord: geo.Coord{Lat: 59.9, Lon: 10.7}, HasCoord: true, Country: "no"},
			{Name: "nyc", Coord: geo.Coord{Lat: 40.7, Lon: -74.0}, HasCoord: true, Country: "us"},
			{Name: "miami", Coord: geo.Coord{Lat: 25.8, Lon: -80.2}, HasCoord: true, Country: "us"},
			{Name: "fortaleza", Coord: geo.Coord{Lat: -3.7, Lon: -38.5}, HasCoord: true, Country: "br"},
			{Name: "santos", Coord: geo.Coord{Lat: -23.9, Lon: -46.3}, HasCoord: true, Country: "br"},
			{Name: "lonely", Coord: geo.Coord{Lat: 0, Lon: 0}, HasCoord: true, Country: "xx"},
		},
		Cables: []Cable{
			{Name: "c0", Segments: []Segment{{A: 0, B: 1, LengthKm: 3000}}, KnownLength: true},
			{Name: "c1", Segments: []Segment{{A: 1, B: 2, LengthKm: 500}}, KnownLength: true},
			{Name: "c2", Segments: []Segment{
				{A: 2, B: 3, LengthKm: 7000},
				{A: 3, B: 4, LengthKm: 2000},
			}, KnownLength: true},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testNetwork().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Network)
		wantErr error
	}{
		{"dangling", func(n *Network) {
			n.Cables[0].Segments[0].B = 99
		}, ErrDanglingSegment},
		{"negative length", func(n *Network) {
			n.Cables[0].Segments[0].LengthKm = -1
		}, ErrNegativeLength},
		{"empty cable", func(n *Network) {
			n.Cables[0].Segments = nil
		}, ErrEmptyCable},
		{"duplicate node", func(n *Network) {
			n.Nodes[1].Name = "oslo"
		}, ErrDuplicateNode},
		{"bad coord", func(n *Network) {
			n.Nodes[0].Coord.Lat = 200
		}, geo.ErrInvalidCoord},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := testNetwork()
			tt.mutate(n)
			err := n.Validate()
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestCableLengthAndRepeaters(t *testing.T) {
	n := testNetwork()
	c2 := &n.Cables[2]
	if got := c2.LengthKm(); got != 9000 {
		t.Errorf("LengthKm = %v", got)
	}
	tests := []struct {
		spacing float64
		want    int
	}{
		{150, 60}, {100, 90}, {50, 180}, {10000, 0}, {0, 0}, {-5, 0},
	}
	for _, tt := range tests {
		if got := c2.RepeaterCount(tt.spacing); got != tt.want {
			t.Errorf("RepeaterCount(%v) = %d, want %d", tt.spacing, got, tt.want)
		}
	}
	// short cable needs no repeater at 150km... c1 is 500km -> 3 repeaters
	if got := n.Cables[1].RepeaterCount(150); got != 3 {
		t.Errorf("c1 repeaters = %d", got)
	}
}

func TestGraphProjection(t *testing.T) {
	n := testNetwork()
	g := n.Graph()
	if g.NumNodes() != 6 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d (one per segment)", g.NumEdges())
	}
	// cached
	if n.Graph() != g {
		t.Error("graph not cached")
	}
}

// cableSet returns a dead-cable bitset over n's cables with the given
// cables set.
func cableSet(n *Network, dead ...int) graph.Bitset {
	b := graph.NewBitset(len(n.Cables))
	for _, ci := range dead {
		b.Set(ci)
	}
	return b
}

func TestDeadEdgeBitsCableDeathKillsAllSegments(t *testing.T) {
	n := testNetwork()
	deadEdges := n.DeadEdgeBitsInto(nil, cableSet(n, 2)) // kill branched c2
	if got := deadEdges.Count(); got != 2 {
		t.Errorf("dead segments = %d, want 2 (both c2 segments dead)", got)
	}
	if !deadEdges.Get(2) || !deadEdges.Get(3) {
		t.Errorf("dead edges = %b, want c2's segments 2 and 3", deadEdges)
	}
	// The projection reuses dst and clears the previous trial's edges.
	deadEdges = n.DeadEdgeBitsInto(deadEdges, cableSet(n, 0))
	if deadEdges.Count() != 1 || !deadEdges.Get(0) {
		t.Errorf("reused dst: dead edges = %b, want only c0's segment", deadEdges)
	}
}

func TestUnreachableNodes(t *testing.T) {
	n := testNetwork()
	// kill c2: fortaleza and santos lose all cables; miami keeps c1.
	got := n.UnreachableNodes(cableSet(n, 2))
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("UnreachableNodes = %v, want [3 4]", got)
	}
	// lonely node (no cables ever) must not be reported even with all dead
	got = n.UnreachableNodes(cableSet(n, 0, 1, 2))
	if len(got) != 5 {
		t.Errorf("all cables dead: %d unreachable, want 5 (lonely excluded)", len(got))
	}
}

func TestConnectedNodeCount(t *testing.T) {
	n := testNetwork()
	if got := n.ConnectedNodeCount(); got != 5 {
		t.Errorf("ConnectedNodeCount = %d, want 5", got)
	}
}

func TestMaxAbsLatEndpointAndBand(t *testing.T) {
	n := testNetwork()
	l, ok := n.MaxAbsLatEndpoint(0)
	if !ok || math.Abs(l-59.9) > 1e-9 {
		t.Errorf("cable 0 max lat = %v, %v", l, ok)
	}
	// c2 spans miami(25.8) fortaleza(3.7S) santos(23.9S): max abs 25.8
	l, _ = n.MaxAbsLatEndpoint(2)
	if math.Abs(l-25.8) > 1e-9 {
		t.Errorf("cable 2 max abs lat = %v", l)
	}
	if b, ok := n.CableBand(0); !ok || b != geo.BandMid {
		t.Errorf("cable 0 band = %v, %v", b, ok)
	}
	if b, _ := n.CableBand(2); b != geo.BandLow {
		t.Errorf("cable 2 band = %v", b)
	}
}

func TestCableBandNoCoords(t *testing.T) {
	n := testNetwork()
	for i := range n.Nodes {
		n.Nodes[i].HasCoord = false
	}
	if _, ok := n.CableBand(0); ok {
		t.Error("band should be unavailable without coordinates")
	}
	if _, ok := n.MaxAbsLatEndpoint(0); ok {
		t.Error("max lat should be unavailable without coordinates")
	}
}

func TestEndpointCoordsAndLengths(t *testing.T) {
	n := testNetwork()
	if got := len(n.EndpointCoords()); got != 6 {
		t.Errorf("EndpointCoords = %d", got)
	}
	n.Nodes[5].HasCoord = false
	if got := len(n.EndpointCoords()); got != 5 {
		t.Errorf("EndpointCoords after drop = %d", got)
	}
	lengths := n.CableLengths()
	if len(lengths) != 3 {
		t.Fatalf("lengths = %v", lengths)
	}
	n.Cables[2].KnownLength = false
	if got := len(n.CableLengths()); got != 2 {
		t.Errorf("unknown-length cable must be excluded, got %d", got)
	}
}

func TestCablesWithoutRepeatersAndMean(t *testing.T) {
	n := testNetwork()
	// at 600km spacing: c1 (500) has none; c0 (3000) has 5; c2 (9000) has 15
	if got := n.CablesWithoutRepeaters(600); got != 1 {
		t.Errorf("CablesWithoutRepeaters = %d", got)
	}
	want := (5.0 + 0 + 15) / 3
	if got := n.MeanRepeatersPerCable(600); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanRepeatersPerCable = %v, want %v", got, want)
	}
	// At 1e-300 km every cable's count saturates at math.MaxInt; the mean
	// must saturate with them, not wrap around.
	if got := n.MeanRepeatersPerCable(1e-300); got != float64(math.MaxInt) {
		t.Errorf("MeanRepeatersPerCable(1e-300) = %v, want %v", got, float64(math.MaxInt))
	}
}

func TestMeanRepeatersEmptyNetwork(t *testing.T) {
	n := &Network{Name: "empty"}
	if got := n.MeanRepeatersPerCable(150); got != 0 {
		t.Errorf("empty network mean = %v", got)
	}
}

func TestNodesOfCountryAndCablesTouching(t *testing.T) {
	n := testNetwork()
	us := n.NodesOfCountry("us")
	if len(us) != 2 || us[0] != 1 || us[1] != 2 {
		t.Errorf("NodesOfCountry(us) = %v", us)
	}
	cables := n.CablesTouching(us)
	if len(cables) != 3 {
		t.Errorf("CablesTouching(us) = %v, want all three", cables)
	}
	br := n.NodesOfCountry("br")
	cables = n.CablesTouching(br)
	if len(cables) != 1 || cables[0] != 2 {
		t.Errorf("CablesTouching(br) = %v, want [2]", cables)
	}
	if got := n.CablesTouching(nil); len(got) != 0 {
		t.Errorf("CablesTouching(nil) = %v", got)
	}
}

func TestNodeIndexByName(t *testing.T) {
	n := testNetwork()
	if got := n.NodeIndexByName("miami"); got != 2 {
		t.Errorf("NodeIndexByName(miami) = %d", got)
	}
	if got := n.NodeIndexByName("atlantis"); got != -1 {
		t.Errorf("NodeIndexByName(atlantis) = %d", got)
	}
}

func TestOneHopEndpointCoords(t *testing.T) {
	n := testNetwork()
	// threshold 40: oslo (59.9) and nyc (40.7) above; c0 touches both;
	// c1 touches nyc -> miami becomes one-hop; c2 touches miami only
	// (25.8 not above) -> fortaleza/santos are NOT one-hop.
	got := n.OneHopEndpointCoords(40)
	if len(got) != 3 {
		t.Fatalf("one-hop count = %d, want 3 (oslo, nyc, miami)", len(got))
	}
	// threshold 70: nobody above, nobody one-hop.
	if got := n.OneHopEndpointCoords(70); len(got) != 0 {
		t.Errorf("one-hop above 70 = %d, want 0", len(got))
	}
}

func TestCriticalCables(t *testing.T) {
	n := testNetwork()
	// c0 (oslo-nyc) and c2 (miami-fortaleza-santos) are single points of
	// failure; c1 and c3 parallel each other between nyc and miami.
	n.Cables = append(n.Cables, topology_c3())
	got := n.CriticalCables()
	want := []int{0, 2}
	if len(got) != len(want) {
		t.Fatalf("critical cables = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("critical cables = %v, want %v", got, want)
		}
	}
}

// topology_c3 returns a parallel nyc-miami cable for the SPOF test.
func topology_c3() Cable {
	return Cable{
		Name:        "c3-parallel",
		Segments:    []Segment{{A: 1, B: 2, LengthKm: 520}},
		KnownLength: true,
	}
}

func TestCriticalCablesAllBridgesInChain(t *testing.T) {
	n := testNetwork() // every cable is a bridge in the base topology
	got := n.CriticalCables()
	if len(got) != 3 {
		t.Errorf("chain topology critical cables = %v, want all 3", got)
	}
}

func TestOneHopMonotoneInThreshold(t *testing.T) {
	n := testNetwork()
	prev := len(n.Nodes) + 1
	for _, th := range []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90} {
		got := len(n.OneHopEndpointCoords(th))
		if got > prev {
			t.Errorf("one-hop set grew as threshold rose at %v", th)
		}
		prev = got
	}
}

func TestCableIncidence(t *testing.T) {
	n := testNetwork()
	start, list := n.CableIncidence()
	if len(start) != len(n.Nodes)+1 {
		t.Fatalf("start length %d, want %d", len(start), len(n.Nodes)+1)
	}
	// Rebuild the incidence naively and compare sets per node.
	want := make([]map[int32]bool, len(n.Nodes))
	for i := range want {
		want[i] = map[int32]bool{}
	}
	for ci, c := range n.Cables {
		for _, s := range c.Segments {
			want[s.A][int32(ci)] = true
			want[s.B][int32(ci)] = true
		}
	}
	for i := range n.Nodes {
		got := list[start[i]:start[i+1]]
		if len(got) != len(want[i]) {
			t.Fatalf("node %d: %d incident cables, want %d", i, len(got), len(want[i]))
		}
		for _, ci := range got {
			if !want[i][ci] {
				t.Fatalf("node %d: unexpected incident cable %d", i, ci)
			}
		}
	}
}

// TestDerivedCachesConcurrentFirstUse drives every lazily-built cache from
// many goroutines at once; run under -race this verifies the sync.Once
// guards that parallel sweeps rely on.
func TestDerivedCachesConcurrentFirstUse(t *testing.T) {
	n := testNetwork()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Graph()
			n.ConnectedNodeCount()
			n.CableIncidence()
			for ci := range n.Cables {
				n.CableBand(ci)
				n.CableBandByPath(ci)
			}
			n.DeadEdgeBitsInto(nil, cableSet(n))
		}()
	}
	wg.Wait()
}

// chainNetwork builds a path of n+1 nodes joined by n single-segment
// cables — enough distinct at-risk sets to exercise the contraction LRU.
func chainNetwork(n int) *Network {
	net := &Network{Name: "chain"}
	for i := 0; i <= n; i++ {
		net.Nodes = append(net.Nodes, Node{Name: "n" + string(rune('a'+i))})
	}
	for i := 0; i < n; i++ {
		net.Cables = append(net.Cables, Cable{
			Name:        "c" + string(rune('a'+i)),
			Segments:    []Segment{{A: i, B: i + 1, LengthKm: 1000}},
			KnownLength: true,
		})
	}
	return net
}

// TestContractionCacheLRU pins the cache's replacement policy and its
// counters: hits refresh recency (an entry touched after filling the cache
// survives later insertions that evict genuinely colder entries), eviction
// removes the least recently used set, and the hit/miss counters account
// for every call.
func TestContractionCacheLRU(t *testing.T) {
	const cables = 12
	net := chainNetwork(cables)
	atRisk := func(i int) graph.Bitset {
		b := graph.NewBitset(cables)
		b.Set(i)
		return b
	}

	// Fill the cache with 8 distinct at-risk sets: all misses.
	first := net.CoreContraction(atRisk(0))
	for i := 1; i < 8; i++ {
		net.CoreContraction(atRisk(i))
	}
	if hits, misses := net.ContractionCacheStats(); hits != 0 || misses != 8 {
		t.Fatalf("after fill: hits=%d misses=%d, want 0/8", hits, misses)
	}

	// Touch the oldest entry: a hit that must also refresh its recency.
	if got := net.CoreContraction(atRisk(0)); got != first {
		t.Fatal("cache hit returned a different contraction than the original build")
	}
	if hits, _ := net.ContractionCacheStats(); hits != 1 {
		t.Fatalf("hits = %d after touching a cached set, want 1", hits)
	}

	// Two fresh sets evict the two least recently used entries. Under LRU
	// those are sets 1 and 2 — set 0 was refreshed above and must survive.
	// (FIFO would have evicted set 0 first; this is the policy change.)
	net.CoreContraction(atRisk(8))
	net.CoreContraction(atRisk(9))
	if got := net.CoreContraction(atRisk(0)); got != first {
		t.Fatal("recently used set was evicted: replacement policy is not LRU")
	}
	if hits, misses := net.ContractionCacheStats(); hits != 2 || misses != 10 {
		t.Fatalf("after survival check: hits=%d misses=%d, want 2/10", hits, misses)
	}

	// Set 1 was the LRU at eviction time, so it must have been dropped:
	// requesting it again is a miss (a rebuild).
	net.CoreContraction(atRisk(1))
	if hits, misses := net.ContractionCacheStats(); hits != 2 || misses != 11 {
		t.Fatalf("after evicted-set refetch: hits=%d misses=%d, want 2/11", hits, misses)
	}
}
