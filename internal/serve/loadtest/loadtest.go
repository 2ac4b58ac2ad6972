// Package loadtest drives a serve.Server with a deterministic synthetic
// request mix modelled on the repo's 8 example workloads, and reports
// throughput and tail latency. The mix's answers are order-independent:
// Report.MixFingerprint folds every response fingerprint with a
// commutative sum, so a baseline (no-tier) run and a fully tiered run of
// the same mix must report the same value — the load test doubles as an
// end-to-end proof that caching, dedup and batching change no answer.
package loadtest

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gicnet/internal/serve"
)

// Options shapes one load-test run.
type Options struct {
	// Requests is the total request count (default 512). Every request
	// goes to the server's default world.
	Requests int
}

// concurrency is the number of client goroutines Run drives.
const concurrency = 8

// Report is one run's measurements.
type Report struct {
	Requests  int           `json:"requests"`
	Errors    int           `json:"errors"`
	Duration  time.Duration `json:"duration_ns"`
	ReqPerSec float64       `json:"req_per_sec"`
	P50       time.Duration `json:"p50_ns"`
	P99       time.Duration `json:"p99_ns"`
	// MixFingerprint is the commutative (order-independent) sum of every
	// response fingerprint; equal mixes answered correctly produce equal
	// values whatever the serving configuration.
	MixFingerprint uint64 `json:"mix_fingerprint"`
	// Stats snapshots the server's counters after the run.
	Stats serve.Stats `json:"stats"`
}

// template is one example-workload shape: a family of requests indexed
// by a draw number.
type template func(draw int) serve.Request

// templates mirrors the repo's 8 example workloads (examples/) as
// serving request families. Small parameter grids repeat across draws,
// which is exactly the locality a scenario-serving tier exists for.
var templates = []template{
	// quickstart: the paper's headline S1/S2 comparison at 150 km.
	func(d int) serve.Request {
		models := []string{"s1", "s2"}
		nets := []string{"submarine", "intertubes", "itu"}
		return serve.Request{Network: nets[d%3], Model: models[d%2], SpacingKm: 150, Trials: 256, Seed: 1}
	},
	// model-sensitivity: model family across repeater spacings.
	func(d int) serve.Request {
		spacings := []float64{50, 100, 150}
		models := []string{"s1", "s2"}
		return serve.Request{Network: "submarine", Model: models[d%2], SpacingKm: spacings[d%3], Trials: 256, Seed: 2}
	},
	// country-impact: repeated S1 scenarios, varying trial seeds.
	func(d int) serve.Request {
		return serve.Request{Network: "submarine", Model: "s1", SpacingKm: 150, Trials: 128, Seed: uint64(3 + d%4)}
	},
	// recovery-timeline: small single-storm style draws.
	func(d int) serve.Request {
		return serve.Request{Network: "submarine", Model: "s1", SpacingKm: 150, Trials: 64, Seed: uint64(10 + d%8)}
	},
	// sweep (shutdown-planning): a uniform-p grid on one seed — the
	// coalescing target: concurrent points share plan family and arena.
	func(d int) serve.Request {
		return serve.Request{Network: "submarine", Model: "uniform", P: 0.05 * float64(1+d%10), SpacingKm: 100, Trials: 256, Seed: 4}
	},
	// satellite-exposure / rare-event: tilted importance sampling at
	// small p.
	func(d int) serve.Request {
		ps := []float64{0.001, 0.002, 0.005}
		return serve.Request{Network: "submarine", Model: "uniform", P: ps[d%3], SpacingKm: 100, Trials: 256, Seed: 5, Estimator: "is"}
	},
	// traffic-shift: QMC variance-reduction runs.
	func(d int) serve.Request {
		return serve.Request{Network: "intertubes", Model: "uniform", P: 0.1 * float64(1+d%2), SpacingKm: 100, Trials: 128, Seed: 6, Estimator: "qmc"}
	},
	// topology-design: alternative-network what-ifs.
	func(d int) serve.Request {
		nets := []string{"intertubes", "itu"}
		return serve.Request{Network: nets[d%2], Model: "uniform", P: 0.1 * float64(1+d%5), SpacingKm: 100, Trials: 128, Seed: 7}
	},
}

// Mix expands opts into the deterministic request list: templates are
// interleaved round-robin and each template walks its own draw counter,
// so the mix for a given Requests is always the same.
func Mix(opts Options) []serve.Request {
	n := opts.Requests
	if n <= 0 {
		n = 512
	}
	reqs := make([]serve.Request, 0, n)
	draws := make([]int, len(templates))
	for i := 0; i < n; i++ {
		t := i % len(templates)
		reqs = append(reqs, templates[t](draws[t]))
		draws[t]++
	}
	return reqs
}

// Run fires the mix at srv from concurrency goroutines and measures.
func Run(ctx context.Context, srv *serve.Server, opts Options) (Report, error) {
	reqs := Mix(opts)
	lats := make([]time.Duration, len(reqs))
	fps := make([]uint64, len(reqs))
	var errCount atomic.Uint64
	var firstErr errOnce
	var next atomic.Int64

	start := time.Now() //gicnet:allow determinism load-test wall-clock measurement, not simulation state
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now() //gicnet:allow determinism per-request latency measurement
				resp, err := srv.Do(ctx, reqs[i])
				lats[i] = time.Since(t0) //gicnet:allow determinism per-request latency measurement
				if err != nil {
					errCount.Add(1)
					firstErr.record(err)
					continue
				}
				fps[i] = resp.Fingerprint
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) //gicnet:allow determinism load-test wall-clock measurement, not simulation state

	rep := Report{
		Requests: len(reqs),
		Errors:   int(errCount.Load()),
		Duration: elapsed,
		Stats:    srv.Stats(),
	}
	if elapsed > 0 {
		rep.ReqPerSec = float64(len(reqs)) / elapsed.Seconds()
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rep.P50 = quantile(sorted, 0.50)
	rep.P99 = quantile(sorted, 0.99)
	for _, fp := range fps {
		rep.MixFingerprint += fp // commutative: order-independent
	}
	if rep.Errors > 0 {
		return rep, fmt.Errorf("loadtest: %d/%d requests failed, first: %w", rep.Errors, rep.Requests, firstErr.get())
	}
	return rep, nil
}

// errOnce keeps the first error recorded across concurrent workers.
// atomic.Value cannot do this job: its CompareAndSwap panics with
// "inconsistently typed value" the moment two workers race errors of
// different concrete types (a *errors.errorString from a rejected request
// against a *fmt.wrapError from a failed sweep). atomic.Pointer is
// type-agnostic — it swaps a pointer to the interface value instead.
type errOnce struct {
	p atomic.Pointer[error]
}

// record stores err if no error has been recorded yet.
func (e *errOnce) record(err error) {
	if err == nil {
		return
	}
	e.p.CompareAndSwap(nil, &err)
}

// get returns the recorded error, nil if none.
func (e *errOnce) get() error {
	if p := e.p.Load(); p != nil {
		return *p
	}
	return nil
}

// quantile reads the q-th quantile from an ascending latency slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
