// Package topology models long-haul cable networks the way the paper's
// analysis consumes them: named nodes (landing points / fiber endpoints),
// multi-branch cables with lengths and repeater counts, and a projection to
// an undirected graph whose edges die when their owning cable dies.
//
// Three concrete networks are analysed throughout the paper and this repo:
// the global submarine network, the US long-haul land network (Intertubes),
// and the global ITU land network. All three are instances of Network.
package topology

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"gicnet/internal/geo"
	"gicnet/internal/graph"
)

// Node is a cable endpoint: a submarine landing point or a land fiber city.
type Node struct {
	// Name is unique within a network (e.g. "us-ny-new-york").
	Name string
	// Coord is the node location. Valid only if HasCoord.
	Coord geo.Coord
	// HasCoord is false for networks like the ITU land dataset, which
	// publishes link structure but not coordinates (§4.1.3).
	HasCoord bool
	// Country is an ISO-3166-ish lowercase country code ("us", "sg").
	Country string
}

// Segment is one branch of a cable connecting two node indices.
type Segment struct {
	A, B     int
	LengthKm float64
}

// Cable is a long-haul cable. A cable may branch and touch several nodes
// (the paper's submarine cables interconnect several cities); it fails as a
// unit — one repeater failure kills every fiber pair in it (§3.2.1).
type Cable struct {
	Name     string
	Segments []Segment
	// KnownLength is false for the 29 submarine cables whose lengths are
	// not published; such cables are excluded from length-based analyses
	// (the paper uses 441 of 470).
	KnownLength bool
}

// LengthKm returns the total cable length over all segments.
func (c *Cable) LengthKm() float64 {
	total := 0.0
	for _, s := range c.Segments {
		total += s.LengthKm
	}
	return total
}

// RepeaterCount returns the number of repeaters at the given inter-repeater
// spacing: one per full spacing interval. Cables shorter than the spacing
// need no repeater and are immune to GIC in the paper's model. At tiny
// spacings the count saturates at math.MaxInt: the quotient is compared in
// float space before converting, since an out-of-range float→int
// conversion is implementation-defined.
func (c *Cable) RepeaterCount(spacingKm float64) int {
	if spacingKm <= 0 {
		return 0
	}
	r := c.LengthKm() / spacingKm
	if r >= math.MaxInt {
		return math.MaxInt
	}
	return int(r)
}

// Network is a named set of nodes and cables.
//
// Derived views (graph projection, node-cable incidence, latitude bands)
// are computed once on first use and cached. The caches are guarded by
// sync.Once, so concurrent simulations may share one Network — but the
// Nodes/Cables slices must not be mutated after the first derived query.
type Network struct {
	Name   string
	Nodes  []Node
	Cables []Cable

	graphOnce      sync.Once
	g              *graph.Graph
	edgeCable      []int   // graph edge id -> cable index
	cableEdgeStart []int32 // cable ci's edges are IDs [start[ci], start[ci+1])

	classOnce   sync.Once
	edgeClasses []int32 // edgeCable widened once for graph.NewCoreContraction

	// Core contractions cached per at-risk cable set. Sweeps compile one
	// plan per probability but nearly all of them share one at-risk set
	// (every repeatered cable), so the contraction build — the only
	// per-plan cost that is linear in the full graph — is paid once per
	// network, not once per compile. The cache is a small LRU (most
	// recently used at the back of the slice) with lifetime hit/miss
	// counters, so the serving layer can report contraction-tier cache
	// effectiveness per shard. Guarded by contractMu; entries are
	// immutable once published.
	contractMu     sync.Mutex
	contractions   []*graph.CoreContraction
	contractHits   uint64
	contractMisses uint64

	incOnce        sync.Once
	nodeCableStart []int32 // CSR offsets: node i's cables are nodeCables[start[i]:start[i+1]]
	nodeCables     []int32 // distinct incident cable indices, grouped by node
	connectedCount int     // nodes with at least one incident cable

	bitsOnce sync.Once
	incBits  *IncidenceBits

	bandOnce     sync.Once
	bands        []geo.Band
	bandOK       []bool
	pathBandOnce sync.Once
	pathBands    []geo.Band
	pathBandOK   []bool

	validated atomic.Bool // set once Validate has succeeded
}

// Errors returned by Validate.
var (
	ErrDanglingSegment = errors.New("topology: segment references missing node")
	ErrNegativeLength  = errors.New("topology: negative segment length")
	ErrEmptyCable      = errors.New("topology: cable with no segments")
	ErrDuplicateNode   = errors.New("topology: duplicate node name")
)

// Validate checks structural integrity. It must pass before Graph is used.
// A successful check is cached (sweeps re-validate per point), under the
// same contract as the derived-view caches: don't mutate after first use.
func (n *Network) Validate() error {
	if n.validated.Load() {
		return nil
	}
	if err := n.validate(); err != nil {
		return err
	}
	n.validated.Store(true)
	return nil
}

func (n *Network) validate() error {
	seen := make(map[string]bool, len(n.Nodes))
	for _, nd := range n.Nodes {
		if seen[nd.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateNode, nd.Name)
		}
		seen[nd.Name] = true
		if nd.HasCoord {
			if err := nd.Coord.Validate(); err != nil {
				return fmt.Errorf("node %q: %w", nd.Name, err)
			}
		}
	}
	for ci, c := range n.Cables {
		if len(c.Segments) == 0 {
			return fmt.Errorf("%w: cable %d (%q)", ErrEmptyCable, ci, c.Name)
		}
		for _, s := range c.Segments {
			if s.A < 0 || s.A >= len(n.Nodes) || s.B < 0 || s.B >= len(n.Nodes) {
				return fmt.Errorf("%w: cable %q segment (%d,%d)", ErrDanglingSegment, c.Name, s.A, s.B)
			}
			if s.LengthKm < 0 || math.IsNaN(s.LengthKm) {
				return fmt.Errorf("%w: cable %q", ErrNegativeLength, c.Name)
			}
		}
	}
	return nil
}

// Graph returns the graph projection of the network: one graph edge per
// cable segment. The projection is built once and cached (safe for
// concurrent first use); the network must not be mutated afterwards.
func (n *Network) Graph() *graph.Graph {
	n.graphOnce.Do(func() {
		g := graph.New()
		for _, nd := range n.Nodes {
			g.AddNode(nd.Name)
		}
		n.edgeCable = nil
		n.cableEdgeStart = make([]int32, len(n.Cables)+1)
		for ci, c := range n.Cables {
			for _, s := range c.Segments {
				g.AddEdge(graph.NodeID(s.A), graph.NodeID(s.B))
				n.edgeCable = append(n.edgeCable, ci)
			}
			// Segments are added cable by cable, so each cable owns a
			// contiguous block of edge IDs.
			n.cableEdgeStart[ci+1] = int32(len(n.edgeCable))
		}
		n.g = g
	})
	return n.g
}

// CableIncidence returns the CSR mapping from each node to its distinct
// incident cable indices: node i's cables are list[start[i]:start[i+1]].
// Built once and cached; the returned slices are shared and must not be
// modified.
func (n *Network) CableIncidence() (start, list []int32) {
	n.incOnce.Do(n.buildIncidence)
	return n.nodeCableStart, n.nodeCables
}

func (n *Network) buildIncidence() {
	nn := len(n.Nodes)
	// Dedupe by remembering, per node, the last cable that touched it:
	// each cable's segments are visited contiguously, so one slot suffices.
	last := make([]int, nn)
	counts := make([]int32, nn+1)
	for pass := 0; pass < 2; pass++ {
		for i := range last {
			last[i] = -1
		}
		for ci, c := range n.Cables {
			for _, s := range c.Segments {
				for _, ni := range [2]int{s.A, s.B} {
					if last[ni] == ci {
						continue
					}
					last[ni] = ci
					if pass == 0 {
						counts[ni+1]++
					} else {
						n.nodeCables[counts[ni]] = int32(ci)
						counts[ni]++
					}
				}
			}
		}
		if pass == 0 {
			for i := 1; i <= nn; i++ {
				counts[i] += counts[i-1]
			}
			n.nodeCableStart = append([]int32(nil), counts...)
			n.nodeCables = make([]int32, counts[nn])
		}
	}
	n.connectedCount = 0
	for i := 0; i < nn; i++ {
		if n.nodeCableStart[i+1] > n.nodeCableStart[i] {
			n.connectedCount++
		}
	}
}

// UnreachableNodes returns the indices of nodes whose incident cables are
// all dead in the dead-cable set — the paper's per-node failure criterion
// (§4.3.1). Nodes that had no cables at all are never counted.
func (n *Network) UnreachableNodes(cableDead graph.Bitset) []int {
	start, list := n.CableIncidence()
	var out []int
	for i := 0; i < len(n.Nodes); i++ {
		cables := list[start[i]:start[i+1]]
		if len(cables) == 0 {
			continue
		}
		alive := false
		for _, ci := range cables {
			if !cableDead.Get(int(ci)) {
				alive = true
				break
			}
		}
		if !alive {
			out = append(out, i)
		}
	}
	return out
}

// ConnectedNodeCount returns the number of nodes with at least one cable.
// Computed once and cached.
func (n *Network) ConnectedNodeCount() int {
	n.incOnce.Do(n.buildIncidence)
	return n.connectedCount
}

// MaxAbsLatEndpoint returns the highest absolute latitude among the cable's
// endpoint nodes — the quantity the paper's non-uniform failure models key
// on ("the highest latitude endpoint of the cable", §4.3.3). Returns
// (0, false) if no endpoint has coordinates.
func (n *Network) MaxAbsLatEndpoint(ci int) (float64, bool) {
	maxAbs := -1.0
	for _, s := range n.Cables[ci].Segments {
		for _, ni := range [2]int{s.A, s.B} {
			nd := n.Nodes[ni]
			if nd.HasCoord && nd.Coord.AbsLat() > maxAbs {
				maxAbs = nd.Coord.AbsLat()
			}
		}
	}
	if maxAbs < 0 {
		return 0, false
	}
	return maxAbs, true
}

// CableBand returns the latitude risk band of cable ci per the paper's
// rule (band of the highest-latitude endpoint). Networks without
// coordinates report BandLow and false. Bands for all cables are computed
// once on first query and cached.
func (n *Network) CableBand(ci int) (geo.Band, bool) {
	n.bandOnce.Do(func() {
		n.bands = make([]geo.Band, len(n.Cables))
		n.bandOK = make([]bool, len(n.Cables))
		for i := range n.Cables {
			if l, ok := n.MaxAbsLatEndpoint(i); ok {
				n.bands[i], n.bandOK[i] = geo.BandOf(l), true
			}
		}
	})
	return n.bands[ci], n.bandOK[ci]
}

// MaxAbsLatPath returns the highest absolute latitude reached along the
// cable's great-circle segments — always at least MaxAbsLatEndpoint,
// because routes between mid-latitude endpoints arc poleward. The paper
// bands by endpoint only; this is the physically tighter alternative used
// by the path-banding ablation.
func (n *Network) MaxAbsLatPath(ci int) (float64, bool) {
	maxAbs := -1.0
	for _, s := range n.Cables[ci].Segments {
		a, b := n.Nodes[s.A], n.Nodes[s.B]
		if !a.HasCoord || !b.HasCoord {
			continue
		}
		if m := geo.PathMaxAbsLat(a.Coord, b.Coord); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs < 0 {
		return 0, false
	}
	return maxAbs, true
}

// CableBandByPath returns the latitude risk band of the cable's full
// great-circle path. The path maxima involve spherical trig per segment,
// so bands for all cables are computed once on first query and cached.
func (n *Network) CableBandByPath(ci int) (geo.Band, bool) {
	n.pathBandOnce.Do(func() {
		n.pathBands = make([]geo.Band, len(n.Cables))
		n.pathBandOK = make([]bool, len(n.Cables))
		for i := range n.Cables {
			if l, ok := n.MaxAbsLatPath(i); ok {
				n.pathBands[i], n.pathBandOK[i] = geo.BandOf(l), true
			}
		}
	})
	return n.pathBands[ci], n.pathBandOK[ci]
}

// Fingerprint hashes the network's complete structure — node names,
// coordinates, countries, and every cable's segments and lengths — with
// FNV-1a. Two networks are structurally identical exactly when their
// fingerprints match; the verification subsystem pins generated worlds to
// golden fingerprints so dataset refactors cannot silently change the
// topology every result depends on.
//
//gicnet:pure
func (n *Network) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "net|%s|%d|%d|", n.Name, len(n.Nodes), len(n.Cables))
	for _, nd := range n.Nodes {
		fmt.Fprintf(h, "n|%s|%s|%t|", nd.Name, nd.Country, nd.HasCoord)
		word(math.Float64bits(nd.Coord.Lat))
		word(math.Float64bits(nd.Coord.Lon))
	}
	for _, c := range n.Cables {
		fmt.Fprintf(h, "c|%s|%t|%d|", c.Name, c.KnownLength, len(c.Segments))
		for _, s := range c.Segments {
			word(uint64(s.A))
			word(uint64(s.B))
			word(math.Float64bits(s.LengthKm))
		}
	}
	return h.Sum64()
}

// EndpointCoords returns the coordinates of all nodes that have them.
func (n *Network) EndpointCoords() []geo.Coord {
	var out []geo.Coord
	for _, nd := range n.Nodes {
		if nd.HasCoord {
			out = append(out, nd.Coord)
		}
	}
	return out
}

// CableLengths returns the lengths of all cables with known length.
func (n *Network) CableLengths() []float64 {
	var out []float64
	for i := range n.Cables {
		if n.Cables[i].KnownLength {
			out = append(out, n.Cables[i].LengthKm())
		}
	}
	return out
}

// CablesWithoutRepeaters counts cables needing no repeater at the spacing.
func (n *Network) CablesWithoutRepeaters(spacingKm float64) int {
	count := 0
	for i := range n.Cables {
		if n.Cables[i].RepeaterCount(spacingKm) == 0 {
			count++
		}
	}
	return count
}

// MeanRepeatersPerCable returns the average repeater count per cable at the
// given spacing (the paper reports 22.3 submarine / 1.7 Intertubes / 0.63
// ITU at 150 km). It sums in float64: at spacings where the counts
// saturate at math.MaxInt, an int sum would overflow.
func (n *Network) MeanRepeatersPerCable(spacingKm float64) float64 {
	if len(n.Cables) == 0 {
		return 0
	}
	total := 0.0
	for i := range n.Cables {
		total += float64(n.Cables[i].RepeaterCount(spacingKm))
	}
	return total / float64(len(n.Cables))
}

// NodesOfCountry returns indices of nodes in the given country.
func (n *Network) NodesOfCountry(country string) []int {
	var out []int
	for i, nd := range n.Nodes {
		if nd.Country == country {
			out = append(out, i)
		}
	}
	return out
}

// CablesTouching returns the indices of cables with at least one segment
// endpoint among the given node set.
func (n *Network) CablesTouching(nodes []int) []int {
	in := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	var out []int
	for ci, c := range n.Cables {
		touch := false
		for _, s := range c.Segments {
			if in[s.A] || in[s.B] {
				touch = true
				break
			}
		}
		if touch {
			out = append(out, ci)
		}
	}
	return out
}

// NodeIndexByName returns the index of the named node, or -1.
func (n *Network) NodeIndexByName(name string) int {
	for i, nd := range n.Nodes {
		if nd.Name == name {
			return i
		}
	}
	return -1
}

// CriticalCables returns the indices of cables whose individual loss
// disconnects the network (increases its connected-component count) —
// single points of failure in the §5.1 topology-design sense.
func (n *Network) CriticalCables() []int {
	scratch := n.Graph().NewScratch()
	base := scratch.ComponentsBits(nil).Sets()
	dead := graph.NewBitset(len(n.Cables))
	var deadEdges graph.Bitset
	var out []int
	for ci := range n.Cables {
		dead.Set(ci)
		deadEdges = n.DeadEdgeBitsInto(deadEdges, dead)
		dead.Unset(ci)
		if scratch.ComponentsBits(deadEdges).Sets() > base {
			out = append(out, ci)
		}
	}
	return out
}

// OneHopEndpointCoords returns the coordinates of nodes that either lie
// above the latitude threshold or share a cable with a node above it —
// the paper's "one-hop endpoints" series in Figure 4(a).
func (n *Network) OneHopEndpointCoords(threshold float64) []geo.Coord {
	above := make([]bool, len(n.Nodes))
	for i, nd := range n.Nodes {
		above[i] = nd.HasCoord && nd.Coord.AbsLat() > threshold
	}
	oneHop := make([]bool, len(n.Nodes))
	copy(oneHop, above)
	for _, c := range n.Cables {
		// A cable touching any above-threshold node exposes all its nodes.
		touch := false
		for _, s := range c.Segments {
			if above[s.A] || above[s.B] {
				touch = true
				break
			}
		}
		if !touch {
			continue
		}
		for _, s := range c.Segments {
			oneHop[s.A] = true
			oneHop[s.B] = true
		}
	}
	var out []geo.Coord
	for i, nd := range n.Nodes {
		if oneHop[i] && nd.HasCoord {
			out = append(out, nd.Coord)
		}
	}
	return out
}
