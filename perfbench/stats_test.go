package main

import (
	"math"
	"testing"
	"time"
)

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		idx     int
		pct     float64
		comment string
	}{
		{104, 93, 100 * 94.0 / 104, "planning: p90.4"},
		{100, 89, 90, "p90"},
		{2500, 2489, 100 * 2490.0 / 2500, "serve-open nominal: p99.6"},
		{11, 0, 100.0 / 11, "only the minimum has ten beyond it"},
		{10, 9, 100, "too few samples: the maximum"},
		{1, 0, 100, "one sample"},
	} {
		idx, pct := tailRank(tc.n)
		if idx != tc.idx || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("%s: tailRank(%d) = %d, %v; want %d, %v", tc.comment, tc.n, idx, pct, tc.idx, tc.pct)
		}
	}
	// On distinct samples exactly ten lie strictly above the tail.
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64((i * 97) % 250) // a permutation of 0..249
	}
	s := summarize(xs)
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
	if s.P50 != 124.5 {
		t.Errorf("p50 = %v, want 124.5", s.P50)
	}
}

func TestFailedOpsReachTheTail(t *testing.T) {
	// Failed ops count as missing every limit (+Inf). With ten of them the
	// ten-beyond tail is still a real latency; the eleventh reaches it.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i)
	}
	for i := 0; i < 10; i++ {
		lat[i] = opTiming{Failed: true}.latency()
	}
	if s := summarize(lat); math.IsInf(s.Tail, 1) {
		t.Errorf("ten failures: tail = %v, want finite", s.Tail)
	}
	lat[10] = opTiming{Failed: true}.latency()
	if s := summarize(lat); !math.IsInf(s.Tail, 1) {
		t.Errorf("eleven failures: tail = %v, want +Inf", s.Tail)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// Due at 10 ms, sent 20 ms late because the generator stalled, answered
	// 5 ms after sending: the user waited 25 ms, not 5.
	ot := opTiming{Due: 10 * time.Millisecond, Sent: 30 * time.Millisecond, Done: 35 * time.Millisecond}
	if got := ot.latency(); got != 25 {
		t.Errorf("latency = %v ms, want 25 (from due, not from send)", got)
	}
	if got := ot.lateness(); got != 20 {
		t.Errorf("lateness = %v ms, want 20", got)
	}
	if !math.IsInf(opTiming{Failed: true}.latency(), 1) {
		t.Error("a failed request must miss every limit")
	}
}

func TestHalfDriftByNormalizesClasses(t *testing.T) {
	// A steady machine: every class at its own constant latency, the
	// halves holding different mixes of slow and fast ops.
	lat := []float64{1, 1, 1, 100, 1, 100, 100, 100}
	cls := []string{"a", "a", "a", "b", "a", "b", "b", "b"}
	if got := halfDrift(lat); got < 10 {
		t.Fatalf("plain half drift = %v; the test needs a mix that fools it", got)
	}
	if got := halfDriftBy(lat, cls); got != 1 {
		t.Errorf("class-normalized half drift = %v, want 1", got)
	}
	slow := []float64{1, 100, 1, 100, 2, 200, 2, 200}
	cls = []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if got := halfDriftBy(slow, cls); math.Abs(got-2) > 1e-12 {
		t.Errorf("half drift of a run that slowed 2x = %v, want 2", got)
	}
}
