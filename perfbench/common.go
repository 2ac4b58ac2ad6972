package main

import (
	"fmt"
	"runtime"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/rare"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// generateWorld builds the canonical world (the system's own calibrated
// defaults and seed; the benchmark seed only drives op inputs) and primes
// the per-network graph caches, as dataset.Default does for every CLI.
func generateWorld(rec *Recorder, parent int) (*dataset.World, error) {
	sp := rec.Begin("dataset.generate_world", parent, -1)
	defer rec.End(sp)
	w, err := dataset.GenerateWorld(dataset.DefaultWorldConfig(), dataset.DefaultSeed)
	if err != nil {
		return nil, err
	}
	for _, n := range w.Networks() {
		n.Graph()
	}
	return w, nil
}

// setupRepeated runs setup setupRepeats times, each from a collected
// heap, timing each, and keeps the last result. Only the last repeat's
// spans matter to a reader, but every repeat is traced the same way so the
// per-layer medians cover them all.
func setupRepeated[T any](rec *Recorder, setup func(parent int) (T, error)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		var zero T
		last = zero // let the previous world be collected
		runtime.GC()
		t := time.Now()
		sp := rec.Begin("setup", -1, -1)
		v, err := setup(sp)
		rec.End(sp)
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		last = v
	}
	return last, secs, nil
}

// datasetProbe times each world generator on its own split stream, exactly
// as dataset.GenerateWorld seeds them, and checks that the networks it
// builds are the ones the world holds, so the decomposition provably did
// the same work. It fills the dataset.* per-layer metrics.
func datasetProbe(rec *Recorder, w *dataset.World, pl map[string]float64, o *outcome) error {
	cfg := dataset.DefaultWorldConfig()
	root := xrand.New(dataset.DefaultSeed)
	top := rec.Begin("dataset.world", -1, -1)
	t0 := time.Now()
	var nets [3]*topology.Network
	gens := []struct {
		name string
		key  uint64
		gen  func(*xrand.Source) error
	}{
		{"dataset.submarine", 1, func(r *xrand.Source) (err error) {
			nets[0], err = dataset.GenerateSubmarine(cfg.Submarine, r)
			return err
		}},
		{"dataset.intertubes", 2, func(r *xrand.Source) (err error) {
			nets[1], err = dataset.GenerateIntertubes(cfg.Intertubes, r)
			return err
		}},
		{"dataset.itu", 3, func(r *xrand.Source) (err error) {
			nets[2], err = dataset.GenerateITU(cfg.ITU, r)
			return err
		}},
		{"dataset.routers", 4, func(r *xrand.Source) error {
			cat, err := dataset.GenerateRouters(cfg.Routers, r)
			if err == nil && len(cat.ASes) != len(w.Routers.ASes) {
				o.problem("dataset probe: %d ASes, world has %d", len(cat.ASes), len(w.Routers.ASes))
			}
			return err
		}},
	}
	for _, g := range gens {
		sp := rec.Begin(g.name, top, -1)
		t := time.Now()
		err := g.gen(root.Split(g.key))
		rec.End(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		pl[g.name+"_ms"] = ms(time.Since(t))
	}
	rec.End(top)
	pl["dataset.world_ms"] = ms(time.Since(t0))
	for i, n := range w.Networks() {
		if nets[i].Fingerprint() != n.Fingerprint() {
			o.problem("dataset probe: %s fingerprint differs from the world's", n.Name)
		}
	}
	return nil
}

// modelFor maps a model name (uniform, s1, s2) to the failure model.
func modelFor(name string, p float64) failure.Model {
	switch name {
	case "s1":
		return failure.S1()
	case "s2":
		return failure.S2()
	}
	return failure.Uniform{P: p}
}

// newEstimator returns a fresh estimator for a name ("" is plain Monte
// Carlo), so no op reuses another op's compiled tilt state.
func newEstimator(name string) sim.Estimator {
	switch name {
	case "is":
		return rare.NewIS(0)
	case "qmc":
		return rare.NewQMC()
	}
	return nil
}

func networkOf(w *dataset.World, name string) *topology.Network {
	switch name {
	case "intertubes":
		return w.Intertubes
	case "itu":
		return w.ITU
	}
	return w.Submarine
}
