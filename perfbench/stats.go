package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a tail may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailPercentiles that
// leaves at least ten of n samples beyond it, or 0 when n is too small
// for any of them.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencies summarises one lane's request latencies in milliseconds.
type latencies struct {
	ms []float64 // sorted
}

func newLatencies(ds []time.Duration) latencies {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return latencies{ms: ms}
}

func (l latencies) n() int               { return len(l.ms) }
func (l latencies) p50() float64         { return percentile(l.ms, 50) }
func (l latencies) at(p float64) float64 { return percentile(l.ms, p) }

// tail returns the latency at percentile p, failing when fewer than ten
// samples lie beyond it.
func (l latencies) tail(p float64) (float64, error) {
	if tailPercentile(l.n()) < p {
		return 0, fmt.Errorf("%d samples cannot support p%g (need %d)", l.n(), p, int(math.Ceil(10/((100-p)/100))))
	}
	return l.at(p), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// samplesFor is the fewest samples that leave ten beyond percentile p.
func samplesFor(p float64) int {
	return int(math.Ceil(10/((100-p)/100) - 1e-9))
}

// maxBlocks bounds how many blocks a lane's metrics are taken over.
const maxBlocks = 5

// blocked summarises a lane per block of consecutive requests: each
// figure is the median of the per-block values, so outside noise during
// part of a run moves one block rather than the result. tail is at the
// percentile the blocks were sized for.
type blocked struct {
	p50, tail float64
	blocks, n int
}

// blockLatencies splits the lane's successful requests, in send order,
// into as many blocks (up to maxBlocks) as leave each a fifth more
// samples than percentile p needs.
func blockLatencies(r *laneResult, p float64) (blocked, error) {
	ok := r.okLatencies()
	k := max(1, min(maxBlocks, len(ok)/(samplesFor(p)*6/5)))
	var p50s, tails []float64
	for b := 0; b < k; b++ {
		l := newLatencies(ok[b*len(ok)/k : (b+1)*len(ok)/k])
		t, err := l.tail(p)
		if err != nil {
			return blocked{}, err
		}
		p50s, tails = append(p50s, l.p50()), append(tails, t)
	}
	return blocked{p50: median(p50s), tail: median(tails), blocks: k, n: len(ok)}, nil
}

// laneLatency is what a phase reports: mid holds the p50 and the p90,
// over blocks sized for a p90, so both get as many blocks as the phase
// allows; tail is the report's tail at the highest percentile the phase
// supports, over blocks sized for that.
type laneLatency struct {
	mid, tail blocked
	p         float64 // the tail's percentile
}

// summarize reports the tail at percentile p, or at the highest one the
// lane's sample supports when a closed-loop phase sent too few requests
// for p, so a slow machine lowers the reported percentile instead of
// failing the run.
func summarize(r *laneResult, p float64) (laneLatency, error) {
	p = min(p, tailPercentile(len(r.okLatencies())))
	if p == 0 {
		return laneLatency{}, fmt.Errorf("%d successful requests are too few for a median", len(r.okLatencies()))
	}
	mid, err := blockLatencies(r, min(90, p))
	if err != nil {
		return laneLatency{}, err
	}
	tail, err := blockLatencies(r, p)
	return laneLatency{mid: mid, tail: tail, p: p}, err
}

// blockRate is the median, over maxBlocks equal windows of the lane's
// wall time, of rows completed per second.
func blockRate(r *laneResult) float64 {
	w := r.wall / maxBlocks
	rows := make([]float64, maxBlocks)
	for i := 0; i < r.sent; i++ {
		if r.errs[i] == nil {
			rows[min(int(r.done[i]/w), maxBlocks-1)] += float64(r.rows[i])
		}
	}
	for b := range rows {
		rows[b] /= w.Seconds()
	}
	return median(rows)
}
