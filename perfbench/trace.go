package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the id of the span that caused it
// (-1 for a root) and Op the benchmark op it served (-1 outside ops).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced run: every method is a no-op, so the timed paths call it
// unconditionally.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its id (-1 on a nil recorder).
func (r *Recorder) Begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its child spans. Overlapping children (parallel
// calls under one parent) are merged first, so shared coverage counts once.
func selfTimes(spans []Span) []time.Duration {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var cur iv
		for j, v := range ivs {
			switch {
			case j == 0:
				cur = v
			case v.a <= cur.b:
				if v.b > cur.b {
					cur.b = v.b
				}
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		self[i] = s.Dur() - covered
	}
	return self
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Ms   float64 `json:"p50_ms"`
}

// layerTable groups spans by name, sorted by total time, descending.
func layerTable(spans []Span) []layerRow {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	rows := make(map[string]*layerRow)
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMs += ms(s.Dur())
		r.SelfMs += ms(self[i])
		durs[s.Name] = append(durs[s.Name], ms(s.Dur()))
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.P50Ms = median(durs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := cmp.Compare(out[j].TotalMs, out[i].TotalMs); c != 0 {
			return c < 0
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spanStats gives the per-name figures the per-layer metrics are built
// from: median duration and total duration of the spans called name.
func spanStats(spans []Span, name string) (p50Ms, totalMs float64, n int) {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, ms(s.Dur()))
			totalMs += ms(s.Dur())
		}
	}
	if len(d) == 0 {
		return 0, 0, 0
	}
	return median(d), totalMs, len(d)
}

// fillSpanLayers sets the per-layer medians that come straight from span
// durations, and the engine's trial throughput.
func fillSpanLayers(pl map[string]float64, spans []Span) {
	for _, n := range []string{"crosslayer.compile", "failure.compile", "topology.contract",
		"partition.recommend", "recovery.plan", "recovery.fleet_sweep", "routing.route",
		"shutdown.plan", "scenario.run"} {
		p50, _, _ := spanStats(spans, n)
		pl[n+"_ms"] = p50
	}
	p50, total, n := spanStats(spans, "sim.run")
	pl["sim.run_ms"] = p50
	if total > 0 {
		pl["sim.trials_per_s"] = float64(n*sweepTrials) / (total / 1000)
	}
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	TraceOverhead float64            `json:"trace_overhead"`
	OverheadBase  string             `json:"trace_overhead_base"`
	Layers        []layerRow         `json:"layers"`
	Metrics       map[string]float64 `json:"metrics"`
	Spans         []Span             `json:"spans"`
}

// writeTrace writes the traced run's spans and layer table under dir and
// returns the file's path.
func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", tf.Workload, tf.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		return "", errors.Join(err, f.Close())
	}
	return path, f.Close()
}
