package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gicnet/internal/serve"
	"gicnet/internal/xrand"
)

func TestSweepOpsSeeded(t *testing.T) {
	a, b, c := sweepOps(7, 3), sweepOps(7, 3), sweepOps(8, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different mc-sweep op lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same mc-sweep op list")
	}
	grid := len(sweepGrid())
	if grid != 216 {
		t.Errorf("grid has %d jobs, want 216", grid)
	}
	if !reflect.DeepEqual(sweepOps(7, 1), a[:grid]) {
		t.Error("a longer run does not extend the shorter run's op list")
	}
	// Stationary: every pass holds every grid cell exactly once.
	for p := 0; p < 3; p++ {
		seen := make([]bool, grid)
		for _, j := range a[p*grid : (p+1)*grid] {
			if seen[j.Cell] {
				t.Fatalf("pass %d repeats cell %d", p, j.Cell)
			}
			seen[j.Cell] = true
			if j.Model == "uniform" && (j.P < 0.001*0.9 || j.P > 0.3) {
				t.Errorf("uniform p %v outside [1e-3, 0.3]", j.P)
			}
		}
	}
}

func TestPlanOpsSeeded(t *testing.T) {
	a, b, c := planOps(7, 2), planOps(7, 2), planOps(8, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different planning op lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same planning op list")
	}
	want := map[string]int{}
	total := 0
	for _, u := range planUnit {
		want[u.kind] = u.count
		total += u.count
	}
	if total != 104 {
		t.Errorf("a unit holds %d ops, want 104", total)
	}
	for u := 0; u < 2; u++ {
		got := map[string]int{}
		for _, j := range a[u*total : (u+1)*total] {
			got[j.Kind]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("unit %d mix %v, want %v", u, got, want)
		}
	}
	if !reflect.DeepEqual(planOps(7, 1), a[:total]) {
		t.Error("a longer run does not extend the shorter run's op list")
	}
}

// TestTemplateCatalogue pins the traffic model: loadtest's eight families
// plus the cross-layer family, 53 distinct keys in a 576-request stream.
func TestTemplateCatalogue(t *testing.T) {
	c := newCatalogue()
	if len(c.stream) != 9*serveModelRounds || len(c.keys) != 53 {
		t.Errorf("stream %d requests, %d distinct keys; want %d and 53", len(c.stream), len(c.keys), 9*serveModelRounds)
	}
	cross := 0
	for _, r := range c.stream {
		if r.Seed>>63 != 0 {
			t.Fatalf("template key %+v has a never-seen seed", r)
		}
		if r.CrossLayer {
			cross++
		}
	}
	if cross != serveModelRounds {
		t.Errorf("%d cross-layer requests, want one per round (%d)", cross, serveModelRounds)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	cat := newCatalogue()
	sched := func(seed uint64, n int) []arrival {
		return openSchedule(xrand.New(seed), cat, 200, n)
	}
	a, b, c := sched(3, 500), sched(3, 500), sched(4, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	long := sched(5, 20000)
	if len(long) != 20000 {
		t.Fatalf("schedule has %d arrivals, want 20000", len(long))
	}
	kinds := map[string]int{}
	for i, x := range long {
		kinds[x.Kind]++
		if i > 0 && x.Due < long[i-1].Due {
			t.Fatal("schedule not in due order")
		}
	}
	// Arrivals come at the nominal rate (twins ride on top of the Poisson
	// draws), with the configured share of never-seen keys.
	draws := len(long) - kinds["twin"]
	rate := float64(draws) / long[len(long)-1].Due.Seconds()
	if math.Abs(rate-200)/200 > 0.03 {
		t.Errorf("Poisson rate %.1f/s, want 200", rate)
	}
	fresh := float64(kinds["fresh"]) / float64(draws)
	if math.Abs(fresh-cat.freshShare) > 0.01 {
		t.Errorf("fresh share %.3f, want %.3f", fresh, cat.freshShare)
	}
	for _, x := range long {
		if x.Kind == "hit" && x.Req.Seed>>63 != 0 || x.Kind != "hit" && x.Req.Seed>>63 != 1 {
			t.Fatalf("%s arrival has seed %x: catalogue and never-seen seeds must not mix", x.Kind, x.Req.Seed)
		}
	}
}

// TestOpenLoopChargesWaits drives the load generator against a stub
// daemon whose first answer takes 60 ms, over one connection. The second
// request is due 1 ms in and answered at once, but waits for the
// connection: its latency counts from its due time and includes that wait.
func TestOpenLoopChargesWaits(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		var req serve.Request
		_ = json.NewDecoder(r.Body).Decode(&req)
		_ = json.NewEncoder(w).Encode(serve.Response{Request: req, Provenance: serve.ProvCache})
	}))
	defer srv.Close()
	g := &loadGen{d: &daemon{base: srv.URL}, client: srv.Client(), conns: 1}
	res := g.run(context.Background(), []arrival{
		{Due: 0, Req: serve.Request{Seed: 1}},
		{Due: time.Millisecond, Req: serve.Request{Seed: 2}},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	second := res[1]
	if second.ConnWait < 50*time.Millisecond {
		t.Errorf("second request waited %v for the connection, want about 59ms", second.ConnWait)
	}
	if lat := second.latency(); lat < 55 {
		t.Errorf("second request latency %.1fms, want >= 55 (counted from due, including the wait)", lat)
	}
	if own := ms(second.Done - second.Sent - second.ConnWait); own > 30 {
		t.Errorf("second request's own service took %.1fms; the stub answers it at once", own)
	}
}

// TestStopAcceptsSIGTERMDeath stops a process with no SIGTERM handler,
// as gicnetd is for a moment after it starts serving: ending by the
// signal it was sent is a clean stop.
func TestStopAcceptsSIGTERMDeath(t *testing.T) {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start sleep: %v", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	if err := d.stop(); err != nil {
		t.Errorf("stop = %v, want nil for a process ended by SIGTERM", err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	// op: 100 - [10,50] - [90,100] = 50; b: 30 - 10 = 20.
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows := layerTable(spans)
	if rows[0].Name != "op" || rows[0].SelfMs != 50 || rows[0].TotalMs != 100 {
		t.Errorf("layer table first row %+v", rows[0])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", -1, 0)
	r.End(id)
	if id != -1 || r.Spans() != nil {
		t.Error("a nil recorder must be a no-op")
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	var a, b digest
	a.add(1, 10)
	a.add(2, 20)
	b.add(2, 20)
	b.add(1, 10)
	if a != b {
		t.Error("digest depends on completion order")
	}
	var c digest
	c.add(1, 20)
	c.add(2, 10)
	if a == c {
		t.Error("digest does not tie answers to their ops")
	}
}
