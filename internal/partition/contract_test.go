package partition

import (
	"reflect"
	"testing"

	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/xrand"
)

// TestMeanFragmentationContractedMatchesAnalyze is the white-box half of
// the contraction guarantee inside this package: per trial, the summary
// aggregated from the contracted union-find labelling must equal the one
// Analyze computes from a fresh full-graph Components pass over the same
// realisation. It replays MeanFragmentation's exact RNG stream so every
// compared trial is one the production loop actually runs.
func TestMeanFragmentationContractedMatchesAnalyze(t *testing.T) {
	net := world(t).Submarine
	models := []struct {
		name string
		m    failure.Model
	}{
		{"s1-tiered", failure.S1()},
		{"uniform-0.35", failure.Uniform{P: 0.35}},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := failure.Compile(net, tc.m, 150)
			if err != nil {
				t.Fatal(err)
			}
			cc := plan.Contraction()
			scratch := net.Graph().NewScratch()
			root := xrand.New(99)
			dead := plan.NewDead()
			const trials = 12
			for ti := 0; ti < trials; ti++ {
				rng := root.SplitAt(uint64(ti))
				plan.SampleInto(dead, &rng)
				uf := scratch.ComponentsCore(cc, dead)
				got := aggregate(net, dead, func(i int) int {
					return uf.Find(int(cc.Super(graph.NodeID(i))))
				})
				want, err := Analyze(net, dead)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d: contracted summary %+v, Analyze %+v", tc.name, ti, got, want)
				}
			}
		})
	}
}
