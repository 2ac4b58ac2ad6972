package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples the reported tail percentile must
// leave beyond it: a percentile with fewer samples above it is one or two
// outliers, not a tail.
const minBeyond = 10

// tailRank returns the 0-based index, into an ascending sort of n samples,
// of the highest order statistic with at least minBeyond samples beyond it,
// and the percentile that order statistic stands for. With n <= minBeyond
// no such statistic exists and the maximum is returned as percentile 100.
func tailRank(n int) (idx int, pct float64) {
	if n <= minBeyond {
		return n - 1, 100
	}
	return n - minBeyond - 1, 100 * float64(n-minBeyond) / float64(n)
}

// latencySummary is a sample of latencies reduced to the figures the
// benchmark reports.
type latencySummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
}

// summarize reduces latencies (milliseconds; +Inf marks a failed op, which
// misses every limit) to their median and ten-beyond tail.
func summarize(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	idx, pct := tailRank(len(s))
	return latencySummary{N: len(s), P50: medianSorted(s), Tail: s[idx], TailPct: pct}
}

// median returns the median of xs (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// halfDrift is the median of the second half of a time-ordered sample over
// the median of its first half: 1 on a steady machine, above 1 when the
// run slowed down as it went.
func halfDrift(ordered []float64) float64 {
	h := len(ordered) / 2
	if h == 0 {
		return 1
	}
	return median(ordered[h:]) / median(ordered[:h])
}

// halfDriftBy is halfDrift over latencies first divided by the median of
// their op class, so a mix whose halves hold different shares of slow and
// fast classes still reads 1 on a steady machine.
func halfDriftBy(ordered []float64, class []string) float64 {
	byClass := map[string][]float64{}
	for i, v := range ordered {
		byClass[class[i]] = append(byClass[class[i]], v)
	}
	med := map[string]float64{}
	for c, vs := range byClass {
		med[c] = median(vs)
	}
	norm := make([]float64, len(ordered))
	for i, v := range ordered {
		norm[i] = v / med[class[i]]
	}
	return halfDrift(norm)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opTiming is one open-loop request: when it was due, when the generator
// actually sent it, and when its answer arrived, all as offsets from the
// start of the schedule.
type opTiming struct {
	Due, Sent, Done time.Duration
	Failed          bool
}

// latency is counted from the due time, not the send time, so a stalled
// generator or a wait for a free connection is charged to the requests it
// delayed. A failed request misses every limit.
func (t opTiming) latency() float64 {
	if t.Failed {
		return math.Inf(1)
	}
	return ms(t.Done - t.Due)
}

// lateness is how long after its due time the generator sent the request.
func (t opTiming) lateness() float64 { return ms(t.Sent - t.Due) }
