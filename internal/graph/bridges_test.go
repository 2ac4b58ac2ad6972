package graph

import (
	"testing"
	"testing/quick"

	"gicnet/internal/xrand"
)

func TestBridgesPath(t *testing.T) {
	g, edges := buildPath(4)
	bridges := g.Bridges()
	if len(bridges) != len(edges) {
		t.Fatalf("path bridges = %v, want all %d edges", bridges, len(edges))
	}
}

func TestBridgesCycleHasNone(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode("")
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%4))
	}
	if bridges := g.Bridges(); len(bridges) != 0 {
		t.Errorf("cycle bridges = %v", bridges)
	}
}

func TestBridgesParallelEdgesNotBridges(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b)
	g.AddEdge(a, b)           // parallel: neither is a bridge
	bridge := g.AddEdge(b, c) // single connection: bridge
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != bridge {
		t.Errorf("bridges = %v, want [%d]", bridges, bridge)
	}
}

func TestBridgesSelfLoopIgnored(t *testing.T) {
	g, _ := buildPath(3)
	g.AddEdge(1, 1)
	if got := len(g.Bridges()); got != 2 {
		t.Errorf("bridges = %d, want 2", got)
	}
}

func TestBridgesTwoTrianglesJoined(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode("")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	join := g.AddEdge(2, 3)
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != join {
		t.Errorf("bridges = %v, want [%d]", bridges, join)
	}
}

func TestBridgesMatchDefinitionProperty(t *testing.T) {
	// An edge is a bridge iff removing it increases the component count.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(16)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode("")
		}
		m := rng.Intn(28)
		for i := 0; i < m; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		_, base := g.Components(nil)
		isBridge := map[EdgeID]bool{}
		for _, b := range g.Bridges() {
			isBridge[b] = true
		}
		for e := 0; e < g.NumEdges(); e++ {
			_, count := g.Components(deadSet(g.NumEdges(), e))
			if (count > base) != isBridge[EdgeID(e)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
