package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// post sends one JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// op is one request of a lane: send performs it, and check validates the
// response after the clock has stopped for it.
type op struct {
	rows  int
	send  func() (int, []byte, error)
	check func(status int, body []byte) error
}

// laneResult holds one lane's per-request timings, indexed like its ops.
type laneResult struct {
	lat   []time.Duration // from due time (open loop) or send (closed loop)
	rtt   []time.Duration // from send to the last response byte
	lag   []time.Duration // send minus due time; open loop only
	done  []time.Duration // completion, from the lane's start
	rows  []int
	errs  []error
	sent  int
	start time.Time
	wall  time.Duration
}

func (r *laneResult) failed() int {
	n := 0
	for _, e := range r.errs[:r.sent] {
		if e != nil {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of the requests that succeeded.
func (r *laneResult) okLatencies() []time.Duration {
	out := make([]time.Duration, 0, r.sent)
	for i := 0; i < r.sent; i++ {
		if r.errs[i] == nil {
			out = append(out, r.lat[i])
		}
	}
	return out
}

func (r *laneResult) rowsOK() int {
	n := 0
	for i := 0; i < r.sent; i++ {
		if r.errs[i] == nil {
			n += r.rows[i]
		}
	}
	return n
}

func newLaneResult(n int) *laneResult {
	return &laneResult{
		lat: make([]time.Duration, n), rtt: make([]time.Duration, n),
		lag: make([]time.Duration, n), done: make([]time.Duration, n),
		rows: make([]int, n), errs: make([]error, n), start: time.Now(),
	}
}

// concat returns r followed by o, a lane that ran right after r: o's
// completion times are shifted by r's wall time.
func (r *laneResult) concat(o *laneResult) *laneResult {
	out := &laneResult{
		lat:  append(r.lat[:r.sent:r.sent], o.lat[:o.sent]...),
		rtt:  append(r.rtt[:r.sent:r.sent], o.rtt[:o.sent]...),
		lag:  append(r.lag[:r.sent:r.sent], o.lag[:o.sent]...),
		rows: append(r.rows[:r.sent:r.sent], o.rows[:o.sent]...),
		errs: append(r.errs[:r.sent:r.sent], o.errs[:o.sent]...),
		done: r.done[:r.sent:r.sent],
		sent: r.sent + o.sent, start: r.start, wall: r.wall + o.wall,
	}
	for _, d := range o.done[:o.sent] {
		out.done = append(out.done, d+r.wall)
	}
	return out
}

// exec performs op i and records it.
func (r *laneResult) exec(i int, o op, due time.Time) {
	r.rows[i] = o.rows
	sent := time.Now()
	status, body, err := o.send()
	done := time.Now()
	r.lat[i] = done.Sub(due)
	r.rtt[i] = done.Sub(sent)
	r.lag[i] = sent.Sub(due)
	r.done[i] = done.Sub(r.start)
	if err == nil {
		err = o.check(status, body)
	}
	r.errs[i] = err
}

// poissonSchedule returns n arrival offsets of a Poisson process at
// rate per second, conditioned on the (n+1)th arrival falling at
// exactly (n+1)/rate: the gaps stay exponential in shape, and every seed
// offers the same mean rate over the same span.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	gaps := make([]float64, n+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	scale := float64(n+1) / rate / sum
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += gaps[i] * scale
		out[i] = time.Duration(t * 1e9)
	}
	return out
}

// arrivals is how many requests a phase at rate fills in dur, and at
// least floor.
func arrivals(rate float64, dur time.Duration, floor int) int {
	return max(int(rate*dur.Seconds()), floor)
}

// openLoop sends ops[i] at start+sched[i] over conns concurrent senders,
// however long earlier requests take: every scheduled op is sent, and a
// request that waits for a free sender is timed from its due time.
func openLoop(conns int, sched []time.Duration, ops func(i int) op) *laneResult {
	res := newLaneResult(len(sched))
	var next atomic.Int64
	start := res.start
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				res.exec(i, ops(i), due)
			}
		}()
	}
	wg.Wait()
	res.sent = len(sched)
	res.wall = time.Since(start)
	return res
}

// closedLoop runs conns clients that each send their next op as soon as
// the previous one answers, until dur has passed. At most maxOps ops are
// sent.
func closedLoop(conns int, dur time.Duration, maxOps int, ops func(i int) op) *laneResult {
	res := newLaneResult(maxOps)
	var next atomic.Int64
	start := res.start
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= maxOps {
					return
				}
				res.exec(i, ops(i), time.Now())
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	// Every claimed index below maxOps was sent: a client claims only
	// before the deadline.
	res.sent = min(int(next.Load()), maxOps)
	return res
}
