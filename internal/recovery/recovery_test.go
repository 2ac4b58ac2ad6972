package recovery

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

func stormDamage(t *testing.T) (*topology.Network, []Fault, []bool) {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	net := w.Submarine
	rng := xrand.New(42)
	dead, err := failure.SampleCableDeaths(net, failure.S2(), 150, rng)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := FaultsFrom(net, dead, 150, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) == 0 {
		t.Fatal("S2 storm produced no faults")
	}
	return net, faults, dead
}

func TestFaultsFromValidation(t *testing.T) {
	net, _, dead := stormDamage(t)
	rng := xrand.New(1)
	if _, err := FaultsFrom(net, make([]bool, 2), 150, 0.1, rng); err == nil {
		t.Error("want length error")
	}
	if _, err := FaultsFrom(net, dead, 150, 0, rng); err == nil {
		t.Error("want severity error")
	}
	if _, err := FaultsFrom(net, dead, 150, 1.5, rng); err == nil {
		t.Error("want severity error")
	}
}

func TestFaultsHaveDamage(t *testing.T) {
	net, faults, dead := stormDamage(t)
	deadCount := 0
	for _, d := range dead {
		if d {
			deadCount++
		}
	}
	if len(faults) != deadCount {
		t.Errorf("faults = %d, dead cables = %d", len(faults), deadCount)
	}
	for _, f := range faults {
		if f.DamagedRepeaters < 1 {
			t.Fatalf("fault on %s has no damage", net.Cables[f.Cable].Name)
		}
	}
}

func TestPlanRecoveryBasics(t *testing.T) {
	net, faults, _ := stormDamage(t)
	sched, err := PlanRecovery(net, faults, DefaultFleet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != len(faults) {
		t.Fatalf("events = %d, faults = %d", len(sched.Events), len(faults))
	}
	if sched.MakespanDays <= 0 {
		t.Error("zero makespan")
	}
	// Events sorted by completion, each with sane times.
	prev := 0.0
	for _, e := range sched.Events {
		if e.Done < e.Start {
			t.Fatalf("event %q finishes before it starts", e.Cable)
		}
		if e.Done < prev {
			t.Fatal("events not sorted by completion")
		}
		prev = e.Done
	}
	// Milestones are monotone in threshold.
	if sched.RestoredAt[0.5] > sched.RestoredAt[0.95] {
		t.Errorf("milestones inverted: %v", sched.RestoredAt)
	}
	if sched.RestoredAt[1.0] > sched.MakespanDays+1e-9 {
		t.Errorf("full restoration after makespan: %v > %v", sched.RestoredAt[1.0], sched.MakespanDays)
	}
	// A storm-scale outage takes a long time with a realistic fleet — the
	// paper's "several months" concern.
	if MonthsToRestore(sched.MakespanDays) < 1 {
		t.Errorf("makespan = %v days; storm-scale repair should take months", sched.MakespanDays)
	}
}

func TestPlanRecoveryValidation(t *testing.T) {
	net, faults, _ := stormDamage(t)
	if _, err := PlanRecovery(net, faults, nil, DefaultOptions()); err == nil {
		t.Error("want empty fleet error")
	}
	opts := DefaultOptions()
	opts.BaseDays = 0
	if _, err := PlanRecovery(net, faults, DefaultFleet(), opts); err == nil {
		t.Error("want base days error")
	}
	bad := []Fault{{Cable: 99999}}
	if _, err := PlanRecovery(net, bad, DefaultFleet(), DefaultOptions()); err == nil {
		t.Error("want fault index error")
	}
	fleet := DefaultFleet()
	fleet[0].SpeedKmPerDay = 0
	if _, err := PlanRecovery(net, faults, fleet, DefaultOptions()); err == nil {
		t.Error("want ship speed error")
	}
}

func TestBiggerFleetFinishesFaster(t *testing.T) {
	net, faults, _ := stormDamage(t)
	times, err := FleetSizeSweep(net, faults, []int{2, 10, 40}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(times[40] <= times[10] && times[10] <= times[2]) {
		t.Errorf("restoration time should fall with fleet size: %v", times)
	}
	if times[2] <= 0 {
		t.Error("zero restoration time")
	}
	if _, err := FleetSizeSweep(net, faults, []int{0}, DefaultOptions()); err == nil {
		t.Error("want size error")
	}
}

func TestRestorationCurveMonotone(t *testing.T) {
	net, faults, _ := stormDamage(t)
	sched, err := PlanRecovery(net, faults, DefaultFleet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	days := []float64{0, 10, 30, 60, 120, 240, 480, sched.MakespanDays}
	curve := sched.RestorationCurve(net, faults, days)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Fatalf("restoration curve not monotone at %v days", days[i])
		}
	}
	if math.Abs(curve[len(curve)-1]-1) > 1e-9 {
		t.Errorf("restoration at makespan = %v, want 1", curve[len(curve)-1])
	}
	if curve[0] >= 1 {
		t.Error("restoration complete at day 0 despite faults")
	}
}

func TestSchedulerPrioritisesReconnection(t *testing.T) {
	// Two faults: one isolates many nodes, one is redundant. The valuable
	// repair should complete first when one ship handles both.
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	net := w.Submarine

	// Find a cable whose death isolates nodes, and one that doesn't.
	var valuable, redundant = -1, -1
	dead := graph.NewBitset(len(net.Cables))
	for ci := range net.Cables {
		dead.Set(ci)
		iso := len(net.UnreachableNodes(dead))
		dead.Unset(ci)
		if iso > 0 && valuable < 0 {
			valuable = ci
		}
		if iso == 0 && redundant < 0 {
			redundant = ci
		}
		if valuable >= 0 && redundant >= 0 {
			break
		}
	}
	if valuable < 0 || redundant < 0 {
		t.Skip("network lacks the needed cable mix")
	}
	faults := []Fault{
		{Cable: redundant, DamagedRepeaters: 1},
		{Cable: valuable, DamagedRepeaters: 1},
	}
	fleet := DefaultFleet()[:1]
	sched, err := PlanRecovery(net, faults, fleet, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Events[0].Cable != net.Cables[valuable].Name {
		t.Errorf("first repair = %q, want the isolating cable %q",
			sched.Events[0].Cable, net.Cables[valuable].Name)
	}
	if sched.Events[0].NodesRestored == 0 {
		t.Error("valuable repair restored no nodes")
	}
}

func TestMonthsToRestore(t *testing.T) {
	if MonthsToRestore(90) != 3 {
		t.Errorf("90 days = %v months", MonthsToRestore(90))
	}
}

func TestDefaultFleetSane(t *testing.T) {
	fleet := DefaultFleet()
	if len(fleet) < 5 {
		t.Fatal("fleet too small")
	}
	seen := map[string]bool{}
	for _, s := range fleet {
		if seen[s.Name] {
			t.Errorf("duplicate ship %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Pos.Validate(); err != nil {
			t.Errorf("ship %q position: %v", s.Name, err)
		}
		if s.SpeedKmPerDay <= 0 {
			t.Errorf("ship %q speed", s.Name)
		}
	}
}

// scheduleFingerprint hashes every field of every event, the makespan and
// every RestoredAt milestone, so any change to a schedule changes it.
func scheduleFingerprint(s *Schedule) string {
	h := fnv.New64a()
	for _, e := range s.Events {
		fmt.Fprintf(h, "%s|%s|%v|%v|%d;", e.Ship, e.Cable, e.Start, e.Done, e.NodesRestored)
	}
	// fmt prints map keys sorted, so the milestone order is fixed.
	fmt.Fprintf(h, "%v|%v", s.MakespanDays, s.RestoredAt)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fleetOf builds a fleet of n ships the way FleetSizeSweep does.
func fleetOf(n int) []Ship {
	base := DefaultFleet()
	fleet := make([]Ship, n)
	for i := range fleet {
		s := base[i%len(base)]
		s.Name = fmt.Sprintf("%s-%d", s.Name, i/len(base))
		fleet[i] = s
	}
	return fleet
}

// pinnedDamage is storm damage for the pins: S2 (the stormDamage set) and
// the much heavier S1.
func pinnedDamage(t *testing.T, m failure.Model, seed uint64) (*topology.Network, []Fault) {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	net := w.Submarine
	rng := xrand.New(seed)
	dead, err := failure.SampleCableDeaths(net, m, 150, rng)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := FaultsFrom(net, dead, 150, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net, faults
}

// TestPlannerAnswersPinned pins PlanRecovery, FleetSizeSweep and
// RestorationCurve answers for fixed storm damage. The values were
// recorded from the full-recomputation greedy (planRecoveryReference);
// the incremental planner must reproduce them bit for bit.
func TestPlannerAnswersPinned(t *testing.T) {
	cases := []struct {
		name  string
		model failure.Model
		seed  uint64
		plans map[int]string // fleet size -> schedule fingerprint
		sweep string
		curve string
	}{
		{"s2-seed42", failure.S2(), 42,
			map[int]string{1: "04ef96a3f3fe7330", 10: "af48a4dbe4ce01fa", 20: "21b36f0b532bf8eb"},
			"91caa5c6d599d4bc", "ce42564a7c720dd2"},
		{"s1-seed7", failure.S1(), 7,
			map[int]string{1: "e1842d0679045334", 10: "7ac94ee00a4b27cf", 20: "d396683c98f7a456"},
			"446a62b2d9a3edd5", "93af14569cd9b29b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, faults := pinnedDamage(t, tc.model, tc.seed)
			for _, n := range []int{1, 10, 20} {
				sched, err := PlanRecovery(net, faults, fleetOf(n), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if got := scheduleFingerprint(sched); got != tc.plans[n] {
					t.Errorf("%d-ship schedule fingerprint = %s, want %s", n, got, tc.plans[n])
				}
				if n == 10 {
					days := []float64{0, 7, 14, 30, 60, 90, 180, 365, sched.MakespanDays}
					h := fnv.New64a()
					fmt.Fprintf(h, "%v", sched.RestorationCurve(net, faults, days))
					if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.curve {
						t.Errorf("restoration curve fingerprint = %s, want %s", got, tc.curve)
					}
				}
			}
			sweep, err := FleetSizeSweep(net, faults, []int{1, 5, 10, 20, 40}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%v", sweep)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.sweep {
				t.Errorf("fleet sweep fingerprint = %s, want %s", got, tc.sweep)
			}
		})
	}
}

// planRecoveryReference is the full-recomputation greedy the incremental
// planner replaced, kept as its test oracle: every marginal gain is a
// fresh UnreachableNodes pass over the whole network, O(faults² · nodes)
// per schedule. Faults must name distinct cables.
func planRecoveryReference(net *topology.Network, faults []Fault, fleet []Ship, opts Options) *Schedule {
	dead := graph.NewBitset(len(net.Cables))
	for _, f := range faults {
		dead.Set(f.Cable)
	}
	baselineUnreachable := len(net.UnreachableNodes(dead))
	preStormReachable := net.ConnectedNodeCount()

	type shipState struct {
		ship Ship
		free float64
		pos  geo.Coord
	}
	ships := make([]shipState, len(fleet))
	for i, s := range fleet {
		ships[i] = shipState{ship: s, pos: s.Pos}
	}
	pending := append([]Fault(nil), faults...)
	sched := &Schedule{RestoredAt: map[float64]float64{}}
	for len(pending) > 0 {
		si := 0
		for i := range ships {
			if ships[i].free < ships[si].free {
				si = i
			}
		}
		ship := &ships[si]
		bestIdx, bestRate, bestDone := -1, -1.0, 0.0
		for fi, f := range pending {
			transit := geo.Haversine(ship.pos, f.Location) / ship.ship.SpeedKmPerDay
			repair := opts.BaseDays + opts.DaysPerRepeater*float64(f.DamagedRepeaters)
			done := ship.free + transit + repair
			dead.Unset(f.Cable)
			restored := 0
			if baselineUnreachable > 0 {
				restored = baselineUnreachable - len(net.UnreachableNodes(dead))
			}
			dead.Set(f.Cable)
			rate := (float64(restored) + 0.1) / (transit + repair)
			if rate > bestRate {
				bestRate, bestIdx, bestDone = rate, fi, done
			}
		}
		f := pending[bestIdx]
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		dead.Unset(f.Cable)
		baselineUnreachable = len(net.UnreachableNodes(dead))
		sched.Events = append(sched.Events, Event{
			Ship:  ship.ship.Name,
			Cable: net.Cables[f.Cable].Name,
			Start: ship.free,
			Done:  bestDone,
		})
		ship.free = bestDone
		ship.pos = f.Location
		if bestDone > sched.MakespanDays {
			sched.MakespanDays = bestDone
		}
	}

	sort.Slice(sched.Events, func(i, j int) bool { return sched.Events[i].Done < sched.Events[j].Done })
	cableIdx := make(map[string]int, len(net.Cables))
	for ci := range net.Cables {
		cableIdx[net.Cables[ci].Name] = ci
	}
	dead.Clear()
	for _, f := range faults {
		dead.Set(f.Cable)
	}
	milestones := []float64{0.5, 0.9, 0.95, 1.0}
	unreachable := len(net.UnreachableNodes(dead))
	record := func(day float64) {
		restoredFrac := float64(preStormReachable-unreachable) / float64(preStormReachable)
		for _, m := range milestones {
			if _, done := sched.RestoredAt[m]; !done && restoredFrac >= m {
				sched.RestoredAt[m] = day
			}
		}
	}
	record(0)
	for ei := range sched.Events {
		e := &sched.Events[ei]
		dead.Unset(cableIdx[e.Cable])
		now := len(net.UnreachableNodes(dead))
		e.NodesRestored = unreachable - now
		unreachable = now
		record(e.Done)
	}
	for _, m := range milestones {
		if _, ok := sched.RestoredAt[m]; !ok {
			sched.RestoredAt[m] = sched.MakespanDays
		}
	}
	return sched
}

// restorationCurveReference is RestorationCurve by full recomputation:
// one UnreachableNodes pass per day mark.
func restorationCurveReference(s *Schedule, net *topology.Network, faults []Fault, days []float64) []float64 {
	total := net.ConnectedNodeCount()
	repairDay := map[string]float64{}
	for _, e := range s.Events {
		repairDay[e.Cable] = e.Done
	}
	out := make([]float64, len(days))
	for di, day := range days {
		cur := graph.NewBitset(len(net.Cables))
		for _, f := range faults {
			if repairDay[net.Cables[f.Cable].Name] > day {
				cur.Set(f.Cable)
			}
		}
		out[di] = float64(total-len(net.UnreachableNodes(cur))) / float64(total)
	}
	return out
}

// randomFaults draws k distinct faulted cables with random damage. Their
// locations come from each cable's first segment, as in FaultsFrom.
func randomFaults(net *topology.Network, k int, rng *xrand.Source) []Fault {
	perm := make([]int, len(net.Cables))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	faults := make([]Fault, k)
	for i, ci := range perm[:k] {
		f := Fault{Cable: ci, DamagedRepeaters: 1 + rng.Intn(8)}
		seg := net.Cables[ci].Segments[0]
		if a, b := net.Nodes[seg.A], net.Nodes[seg.B]; a.HasCoord && b.HasCoord {
			f.Location = geo.Midpoint(a.Coord, b.Coord)
		}
		faults[i] = f
	}
	return faults
}

// TestPlanRecoveryMatchesReference diffs the incremental planner against
// the full-recomputation oracle on random fault sets over the submarine
// and intertubes networks: every event field, every milestone and the
// restoration curve must agree exactly.
func TestPlanRecoveryMatchesReference(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2021)
	sets := 0
	for _, net := range []*topology.Network{w.Submarine, w.Intertubes} {
		for trial := 0; trial < 110; trial++ {
			k := 1 + rng.Intn(40)
			if trial%25 == 0 {
				k = len(net.Cables) / 3 // a storm-scale backlog now and then
			}
			faults := randomFaults(net, k, rng)
			fleet := fleetOf(1 + rng.Intn(12))
			opts := Options{BaseDays: 1 + 10*rng.Float64(), DaysPerRepeater: 5 * rng.Float64()}
			got, err := PlanRecovery(net, faults, fleet, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := planRecoveryReference(net, faults, fleet, opts)
			if g, r := scheduleFingerprint(got), scheduleFingerprint(want); g != r {
				t.Fatalf("%s set %d (%d faults, %d ships): schedule %s, reference %s",
					net.Name, trial, k, len(fleet), g, r)
			}
			days := []float64{0, got.MakespanDays / 4, got.MakespanDays / 2, got.MakespanDays}
			gc, wc := got.RestorationCurve(net, faults, days), restorationCurveReference(want, net, faults, days)
			for i := range days {
				if gc[i] != wc[i] {
					t.Fatalf("%s set %d: restoration at day %v = %v, reference %v", net.Name, trial, days[i], gc[i], wc[i])
				}
			}
			sets++
		}
	}
	if sets < 200 {
		t.Fatalf("only %d fault sets compared", sets)
	}
}

// TestPlanRecoveryRejectsDuplicateFaults: a second fault on an already
// listed cable is an error, not a silent re-death of a repaired cable.
func TestPlanRecoveryRejectsDuplicateFaults(t *testing.T) {
	net, faults, _ := stormDamage(t)
	dup := append(append([]Fault(nil), faults...), faults[len(faults)/2])
	if _, err := PlanRecovery(net, dup, DefaultFleet(), DefaultOptions()); err == nil {
		t.Fatal("want duplicate fault error")
	}
	if _, err := FleetSizeSweep(net, dup, []int{5}, DefaultOptions()); err == nil {
		t.Fatal("want duplicate fault error from the fleet sweep")
	}
}
