package main

import (
	"errors"
	"testing"
)

// snapshot builds a Snapshot from results, with no benchmark run.
func snapshot(rs ...Result) *Snapshot { return &Snapshot{Results: rs} }

// ns is a result with only a time per op.
func ns(name string, v float64) Result { return Result{Name: name, NsPerOp: v} }

// metric is a result carrying one custom metric.
func metric(name, unit string, v float64) Result {
	return Result{Name: name, NsPerOp: 1, Extra: map[string]float64{unit: v}}
}

// reruns is a rerun stub that answers from canned snapshots and counts
// its calls.
type reruns struct {
	by    map[string]Result
	calls int
}

func (r *reruns) run(name string) (*Snapshot, error) {
	r.calls++
	res, ok := r.by[name]
	if !ok {
		return nil, errors.New("no canned rerun for " + name)
	}
	return snapshot(res), nil
}

// TestCheckGates drives every gate kind through pass, fail, and (for the
// wall-clock kinds) a shortfall that the one-rerun best observation
// clears.
func TestCheckGates(t *testing.T) {
	speedup := gate{High: "B/slow", Low: "B/fast", Unit: "ns/op", MinRatio: 2}
	variance := gate{High: "V/plain", Low: "V/qmc", Unit: "nvar/est", MinRatio: 10, Deterministic: true}
	rate := gate{High: "S/full", Low: "S/base", Unit: "req/s", MinRatio: 3}
	latency := gate{High: "S/base", Low: "S/full", Unit: "p99-ns", MinRatio: 1}

	for _, tc := range []struct {
		name      string
		g         gate
		snap      *Snapshot
		rerun     map[string]Result
		wantFail  bool
		wantCalls int
	}{
		{"speedup pass", speedup, snapshot(ns("B/slow", 300), ns("B/fast", 100)), nil, false, 0},
		{"speedup fail", speedup, snapshot(ns("B/slow", 150), ns("B/fast", 100)),
			map[string]Result{"B/slow": ns("B/slow", 160), "B/fast": ns("B/fast", 90)}, true, 2},
		// The rerun keeps each side's fastest time: the slow side's worse
		// 120 is ignored, the fast side's 60 clears 2x against 150.
		{"speedup cleared by rerun", speedup, snapshot(ns("B/slow", 150), ns("B/fast", 100)),
			map[string]Result{"B/slow": ns("B/slow", 120), "B/fast": ns("B/fast", 60)}, false, 2},
		{"metric pass", variance, snapshot(metric("V/plain", "nvar/est", 50), metric("V/qmc", "nvar/est", 2)), nil, false, 0},
		// A deterministic metric never reruns: the same seeds give the
		// same shortfall.
		{"metric fail", variance, snapshot(metric("V/plain", "nvar/est", 5), metric("V/qmc", "nvar/est", 2)), nil, true, 0},
		{"metric zero low fails", variance, snapshot(metric("V/plain", "nvar/est", 5), metric("V/qmc", "nvar/est", 0)), nil, true, 0},
		{"rate pass", rate, snapshot(metric("S/full", "req/s", 900), metric("S/base", "req/s", 100)), nil, false, 0},
		{"rate fail", rate, snapshot(metric("S/full", "req/s", 200), metric("S/base", "req/s", 100)),
			map[string]Result{"S/full": metric("S/full", "req/s", 250), "S/base": metric("S/base", "req/s", 90)}, true, 2},
		// Rates keep the highest observation on both sides.
		{"rate cleared by rerun", rate, snapshot(metric("S/full", "req/s", 200), metric("S/base", "req/s", 100)),
			map[string]Result{"S/full": metric("S/full", "req/s", 330), "S/base": metric("S/base", "req/s", 80)}, false, 2},
		{"latency pass", latency, snapshot(metric("S/base", "p99-ns", 500), metric("S/full", "p99-ns", 100)), nil, false, 0},
		{"latency fail", latency, snapshot(metric("S/base", "p99-ns", 100), metric("S/full", "p99-ns", 500)),
			map[string]Result{"S/base": metric("S/base", "p99-ns", 90), "S/full": metric("S/full", "p99-ns", 400)}, true, 2},
		// Latencies keep the lowest observation on both sides.
		{"latency cleared by rerun", latency, snapshot(metric("S/base", "p99-ns", 100), metric("S/full", "p99-ns", 500)),
			map[string]Result{"S/base": metric("S/base", "p99-ns", 200), "S/full": metric("S/full", "p99-ns", 80)}, false, 2},
		{"absent side skips", speedup, snapshot(ns("B/slow", 100)), nil, false, 0},
		{"absent metric skips", variance, snapshot(ns("V/plain", 1), ns("V/qmc", 1)), nil, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &reruns{by: tc.rerun}
			failed := checkGates([]gate{tc.g}, tc.snap, stub.run)
			if got := len(failed) > 0; got != tc.wantFail {
				t.Errorf("failed = %v, want failure %v", failed, tc.wantFail)
			}
			if stub.calls != tc.wantCalls {
				t.Errorf("reruns = %d, want %d", stub.calls, tc.wantCalls)
			}
		})
	}
}
