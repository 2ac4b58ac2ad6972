package failure

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScaledClamps(t *testing.T) {
	n := net()
	m := Scaled{Base: Uniform{P: 0.5}, Factor: 3}
	if got := m.RepeaterProb(n, 0); got != 1 {
		t.Errorf("over-scaled = %v, want clamp to 1", got)
	}
	m = Scaled{Base: Uniform{P: 0.5}, Factor: -1}
	if got := m.RepeaterProb(n, 0); got != 0 {
		t.Errorf("negative scale = %v, want 0", got)
	}
	m = Scaled{Base: Uniform{P: 0.4}, Factor: 0.5}
	if got := m.RepeaterProb(n, 0); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("scaled = %v, want 0.2", got)
	}
	if m.Name() == "" {
		t.Error("empty name")
	}
}

func TestOverlayIndependence(t *testing.T) {
	n := net()
	m := Overlay{A: Uniform{P: 0.5}, B: Uniform{P: 0.5}}
	if got := m.RepeaterProb(n, 0); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("overlay = %v, want 0.75", got)
	}
	// Overlaying zero changes nothing.
	m = Overlay{A: S1(), B: Uniform{P: 0}}
	for ci := range n.Cables {
		if got, want := m.RepeaterProb(n, ci), S1().RepeaterProb(n, ci); math.Abs(got-want) > 1e-12 {
			t.Errorf("cable %d: overlay with zero = %v, want %v", ci, got, want)
		}
	}
}

func TestOverlayBoundsProperty(t *testing.T) {
	n := net()
	f := func(aSeed, bSeed float64) bool {
		if math.IsNaN(aSeed) || math.IsNaN(bSeed) {
			return true
		}
		// quick draws float64s as ±rand.Float64()*MaxFloat64, which are
		// whole numbers; scaling back by MaxFloat64 spreads them over [0, 1].
		a := math.Abs(aSeed) / math.MaxFloat64
		b := math.Abs(bSeed) / math.MaxFloat64
		m := Overlay{A: Uniform{P: a}, B: Uniform{P: b}}
		p := m.RepeaterProb(n, 0)
		// overlay is at least each component and at most 1
		return p >= a-1e-12 && p >= b-1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorstEnvelope(t *testing.T) {
	n := net()
	m := Worst{A: S1(), B: S2()}
	for ci := range n.Cables {
		got := m.RepeaterProb(n, ci)
		a, b := S1().RepeaterProb(n, ci), S2().RepeaterProb(n, ci)
		if got != math.Max(a, b) {
			t.Errorf("cable %d: worst = %v, want max(%v,%v)", ci, got, a, b)
		}
	}
	if m.Name() != "max(S1(high),S2(low))" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestCombinatorsComposeWithSimulation(t *testing.T) {
	// A scaled-down S1 must produce fewer expected failures than S1.
	n := net()
	full, err := ExpectedCableFrac(n, S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	half, err := ExpectedCableFrac(n, Scaled{Base: S1(), Factor: 0.5}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if half >= full {
		t.Errorf("scaled model expected frac %v should trail full %v", half, full)
	}
	// Overlaying background failures can only increase expectations.
	over, err := ExpectedCableFrac(n, Overlay{A: S1(), B: Uniform{P: 0.01}}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if over < full {
		t.Errorf("overlay expected frac %v should exceed plain %v", over, full)
	}
}
