package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"boosthd/internal/serve"
	"boosthd/internal/trainer"
)

// env is what every workload run shares.
type env struct {
	seed    int64
	seconds time.Duration
	workdir string // private to this run, inside the checkout
	conns   int    // client connections: one per core
	corpus  *corpus
	ckpt    string
	// begin and end bracket a pass's measured phases, after its warm-up
	// and before any correctness replay.
	begin, end func()
}

// workload is one traffic mix over one stack configuration.
type workload struct {
	name    string
	backend string
	tenants bool
	run     func(e *env, st *stack) (*passResult, error)
}

var workloads = []workload{
	{name: "wearable", backend: "binary", run: runWearable},
	{name: "bulk", backend: "binary", run: runBulk},
	{name: "per_person", backend: "float", tenants: true, run: runPerPerson},
}

// Wearable rates, requests per second. Both fixed rates sit well below
// the knee, where latency repeats from run to run; the ladder climbs
// until a step misses the 10 ms p99 limit.
var (
	wearableLow    = 250.0
	wearableHigh   = 500.0
	wearableLadder = []float64{1000, 1400, 1800, 2200, 2600, 3000, 3400}
)

const latencyLimit = 10 * time.Millisecond

// minTailSamples is the fewest requests a phase reported at p99 sends:
// 1000 leave exactly ten beyond the p99, and the extra keeps a few
// failed requests from dropping the count below that.
const minTailSamples = 1200

// Per-person traffic. The read lane sends back to back on one
// connection for a fifth of the run (the gated latency), runs open loop
// alone for a fifth, sends back to back for another fifth, then runs
// open loop beside the write lane for the last two fifths. Reads pick
// tenants with zipf skew; writes pick them uniformly, which keeps every
// tenant's buffer, and so each retrain's cost, small. Every tenant's
// buffer starts with its warm rows, the trainer's minimum, and the
// client asks for a retrain once personRetrainEvery rows arrived since
// the last; 100 retrains leave ten beyond their p90. Open-loop reads alone use every connection;
// beside the writes the read lane keeps to one. Both rates stay well
// below what those connections carry.
const (
	personAloneRate    = 200.0
	personMixedRate    = 100.0
	personRetrains     = 100
	personObserveRow   = 4
	personRetrainEvery = 8
	// personZipfS puts four in five sequential reads on a resident
	// tenant, so the gated median lies among the hits and not in the
	// gap between hit and cold-load latencies, where a small shift of
	// either mode moves it far.
	personZipfS = 1.5
)

// passResult is one measured pass of a workload.
type passResult struct {
	e2e       map[string]float64 // p50_ms, p90_ms, rows_per_s, accuracy
	report    []reportLine       // the workload's own metric names
	read      []*laneResult      // every read-lane result, for the traced account
	write     *laneResult        // per_person write lane
	batchRows int                // rows sent through base /predict_batch
	batchOps  int
	attempted int
	failed    int
	problems  []string
}

type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

func (p *passResult) add(name string, v float64, unit, note string) {
	p.report = append(p.report, reportLine{name, v, unit, note})
}

func (p *passResult) count(lanes ...*laneResult) {
	for _, l := range lanes {
		p.attempted += l.sent
		p.failed += l.failed()
		for i := 0; i < l.sent; i++ {
			if l.errs[i] != nil && len(p.problems) < 5 {
				p.problems = append(p.problems, l.errs[i].Error())
			}
		}
	}
}

// featureBodies pre-encodes one /predict body per row.
func featureBodies(X [][]float64) [][]byte {
	out := make([][]byte, len(X))
	for i, x := range X {
		out[i], _ = json.Marshal(map[string][]float64{"features": x})
	}
	return out
}

func checkLabel(status int, body []byte, classes int) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("status %d: %s", status, body)
	}
	var resp struct {
		Label *int `json:"label"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Label == nil {
		return 0, fmt.Errorf("bad predict response %q", body)
	}
	if *resp.Label < 0 || *resp.Label >= classes {
		return 0, fmt.Errorf("label %d outside [0,%d)", *resp.Label, classes)
	}
	return *resp.Label, nil
}

func checkLabels(status int, body []byte, want int) ([]int, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %s", status, body)
	}
	var resp struct {
		Labels []int `json:"labels"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Labels) != want {
		return nil, fmt.Errorf("bad predict_batch response for %d rows", want)
	}
	return resp.Labels, nil
}

// servedRows records the label served for each pool row, so accuracy is
// computed over distinct rows and does not depend on how many requests a
// run completed.
type servedRows []atomic.Int32

func newServedRows(n int) servedRows {
	s := make(servedRows, n)
	for i := range s {
		s[i].Store(-1)
	}
	return s
}

// accuracy is the ground-truth match over every row served at least
// once; it fails unless every pool row was served.
func (s servedRows) accuracy(truth []int) (float64, error) {
	hit := 0
	for i := range s {
		l := s[i].Load()
		if l < 0 {
			return 0, fmt.Errorf("pool row %d was never served", i)
		}
		if int(l) == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(s)), nil
}

func runWearable(e *env, st *stack) (*passResult, error) {
	c := e.corpus
	pool, truth := c.testX, c.testY
	// The correctness oracle: the serving engine's own direct batch
	// prediction over the pool.
	want, err := st.eng.PredictBatch(pool)
	if err != nil {
		return nil, err
	}
	bodies := featureBodies(pool)
	rng := rand.New(rand.NewSource(e.seed ^ 0x77ea))
	perm := rng.Perm(len(pool))
	served := newServedRows(len(pool))
	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	url := st.url + "/predict"
	next := 0
	lane := func() func(i int) op {
		base := next
		return func(i int) op {
			row := perm[(base+i)%len(perm)]
			return op{
				rows: 1,
				send: func() (int, []byte, error) { return post(client, url, bodies[row]) },
				check: func(status int, body []byte) error {
					label, err := checkLabel(status, body, c.classes)
					if err != nil {
						return err
					}
					if label != want[row] {
						return fmt.Errorf("row %d: served label %d, engine says %d", row, label, want[row])
					}
					served[row].Store(int32(label))
					return nil
				},
			}
		}
	}
	phase := func(rate float64, n int) *laneResult {
		sched := poissonSchedule(rng, rate, n)
		r := openLoop(e.conns, sched, lane())
		next += len(sched)
		return r
	}
	// Warm-up, not measured: connections, engine scratch, first GC.
	phase(wearableLow, 150)
	e.begin()

	// Phase shares of the run: low, sequential and ladder a fifth each,
	// high a quarter, saturation the rest. The sequential phase carries
	// the gated latency; each fixed rate still sends enough for its p99.
	low := phase(wearableLow, arrivals(wearableLow, e.seconds/5, minTailSamples))
	high := phase(wearableHigh, arrivals(wearableHigh, e.seconds/4, minTailSamples))
	// Sequential: one client sending back to back, the lone caller's
	// round trip with nothing queued.
	seq := closedLoop(1, e.seconds/5, 1<<16, lane())
	next += seq.sent
	// Saturation: one closed-loop client per connection, for the
	// single-row throughput ceiling.
	sat := closedLoop(e.conns, e.seconds*15/100, 1<<16, lane())
	next += sat.sent
	p := &passResult{e2e: map[string]float64{}, read: []*laneResult{low, high, seq, sat}}
	// The ladder shares what is left of the run; every step sends at
	// least the requests a p99 needs.
	stepDur := e.seconds / 5 / time.Duration(len(wearableLadder))
	maxRPS := 0.0
	var ladderLines []string
	for _, rate := range wearableLadder {
		r := phase(rate, arrivals(rate, stepDur, minTailSamples))
		p.read = append(p.read, r)
		lat := newLatencies(r.okLatencies())
		p99, terr := lat.tail(99)
		endLag := r.lag[r.sent-1]
		ok := terr == nil && r.failed() == 0 && p99 <= float64(latencyLimit)/1e6 && endLag <= latencyLimit
		ladderLines = append(ladderLines, fmt.Sprintf("%.0f rps: p99 %.3f ms, end lag %.3f ms, n=%d, ok=%v", rate, p99, float64(endLag)/1e6, r.sent, ok))
		if !ok {
			break
		}
		maxRPS = rate
	}
	e.end()
	p.count(p.read...)

	lowLat, err := summarize(low, 99)
	if err != nil {
		return nil, fmt.Errorf("low rate: %w", err)
	}
	highLat, err := summarize(high, 99)
	if err != nil {
		return nil, fmt.Errorf("high rate: %w", err)
	}
	seqLat, err := summarize(seq, 99)
	if err != nil {
		return nil, fmt.Errorf("sequential: %w", err)
	}
	acc, err := served.accuracy(truth)
	if err != nil {
		p.problems = append(p.problems, err.Error())
	}
	satRPS := blockRate(sat)
	p.e2e["p50_ms"] = seqLat.mid.p50
	p.e2e["p90_ms"] = seqLat.mid.tail
	p.e2e["rows_per_s"] = satRPS
	p.e2e["accuracy"] = acc
	p.add("predict_p50_ms.low", lowLat.mid.p50, "ms", blockNote(lowLat, wearableLow))
	p.add("predict_p90_ms.low", lowLat.mid.tail, "ms", "")
	p.add(fmt.Sprintf("predict_p%g_ms.low", lowLat.p), lowLat.tail.tail, "ms", "")
	p.add("predict_p50_ms.high", highLat.mid.p50, "ms", blockNote(highLat, wearableHigh))
	p.add("predict_p90_ms.high", highLat.mid.tail, "ms", "")
	p.add(fmt.Sprintf("predict_p%g_ms.high", highLat.p), highLat.tail.tail, "ms", "")
	p.add("predict_p50_ms.seq", seqLat.mid.p50, "ms", blockNote(seqLat, 0))
	p.add("predict_p90_ms.seq", seqLat.mid.tail, "ms", "")
	p.add("max_rps", maxRPS, "1/s", "highest ladder rate with p99 <= 10 ms, no failures, no growing lag")
	p.add("saturated_rps", satRPS, "1/s", fmt.Sprintf("closed loop, %d clients, n=%d, median of %d windows", e.conns, sat.sent, maxBlocks))
	for _, l := range ladderLines {
		p.add("ladder", math.NaN(), "", l)
	}
	return p, nil
}

// bulkMix is the number of distinct batches in the bulk cycle. Their row
// counts are log-uniform between 16 and 1024, one per stratum, sent in a
// fixed interleaved order: the seed moves each count within its stratum
// and picks the rows, so every seed sends nearly the same mix and
// pairs large and small batches the same way on the two clients.
const bulkMix = 64

var bulkOrder = rand.New(rand.NewSource(1)).Perm(bulkMix)

func bulkSizes(rng *rand.Rand) []int {
	sizes := make([]int, bulkMix)
	for i, stratum := range bulkOrder {
		u := (float64(stratum) + rng.Float64()) / bulkMix
		sizes[i] = int(math.Round(16 * math.Pow(64, u)))
	}
	return sizes
}

func runBulk(e *env, st *stack) (*passResult, error) {
	c := e.corpus
	pool, truth := c.testX, c.testY
	// The correctness oracle: the serving engine's own direct batch
	// prediction over the pool.
	want, err := st.eng.PredictBatch(pool)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0xb01c))
	sizes := bulkSizes(rng)
	type batch struct {
		rows []int
		body []byte
	}
	batches := make([]batch, len(sizes))
	off := 0
	for k, n := range sizes {
		b := batch{rows: make([]int, n)}
		X := make([][]float64, n)
		for j := range X {
			b.rows[j] = (off + j) % len(pool)
			X[j] = pool[b.rows[j]]
		}
		off += n
		b.body, _ = json.Marshal(map[string][][]float64{"rows": X})
		batches[k] = b
	}
	served := newServedRows(len(pool))
	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	url := st.url + "/predict_batch"
	opAt := func(i int) op {
		b := batches[i%len(batches)]
		return op{
			rows: len(b.rows),
			send: func() (int, []byte, error) { return post(client, url, b.body) },
			check: func(status int, body []byte) error {
				labels, err := checkLabels(status, body, len(b.rows))
				if err != nil {
					return err
				}
				for j, row := range b.rows {
					if labels[j] != want[row] {
						return fmt.Errorf("row %d: served label %d, engine says %d", row, labels[j], want[row])
					}
					served[row].Store(int32(labels[j]))
				}
				return nil
			},
		}
	}
	// Warm-up, not measured: one smallest batch per client.
	for i := 0; i < e.conns; i++ {
		warm := opAt(0)
		status, body, err := warm.send()
		if err == nil {
			err = warm.check(status, body)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	e.begin()
	r := closedLoop(e.conns, e.seconds, 1<<16, opAt)
	e.end()
	p := &passResult{e2e: map[string]float64{}, read: []*laneResult{r}}
	p.count(r)
	p.batchRows, p.batchOps = r.rowsOK(), r.sent-r.failed()
	lat, err := summarize(r, 95)
	if err != nil {
		return nil, err
	}
	acc, err := served.accuracy(truth)
	if err != nil {
		p.problems = append(p.problems, err.Error())
	}
	rps := blockRate(r)
	p.e2e["p50_ms"] = lat.mid.p50
	p.e2e["p90_ms"] = lat.mid.tail
	p.e2e["rows_per_s"] = rps
	p.e2e["accuracy"] = acc
	p.add("rows_per_s", rps, "1/s", fmt.Sprintf("%d rows in %d batches over %.2f s, median of %d windows", r.rowsOK(), lat.mid.n, r.wall.Seconds(), maxBlocks))
	p.add("batch_p50_ms", lat.mid.p50, "ms", blockNote(lat, 0))
	p.add("batch_p90_ms", lat.mid.tail, "ms", "")
	p.add(fmt.Sprintf("batch_p%g_ms", lat.p), lat.tail.tail, "ms", "p99 would need 1000 batches")
	return p, nil
}

// persistDeltas trains and persists every tenant's initial delta from
// its warm rows, through a registry of its own over dir, so the measured
// stack starts with real records on disk and nothing resident.
func persistDeltas(e *env, dir string) error {
	eng, err := serve.LoadEngine(e.ckpt, "float")
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	reg, err := serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{Store: serve.NewFileDeltaStore(dir)})
	if err != nil {
		return err
	}
	tt, err := trainer.NewTenantTrainer(reg, trainer.TenantConfig{})
	if err != nil {
		return err
	}
	for _, t := range e.corpus.tenants {
		if err := tt.ObserveTenantBatch(t.id, t.warmX, t.warmY); err != nil {
			return err
		}
		rep, err := tt.RetrainTenant(t.id)
		if err != nil {
			return err
		}
		if !rep.Swapped {
			return fmt.Errorf("tenant %s: warm retrain did not swap: %s", t.id, rep.Reason)
		}
	}
	return nil
}

// writeOp is one scheduled write-lane request.
type writeOp struct {
	tenant  int
	retrain bool
	body    []byte
	rows    int
}

// readPlan is one read phase: arrival times, and each request's tenant
// and row.
type readPlan struct {
	sched       []time.Duration
	tenant, row []int
}

// personPlan is the per_person traffic: sequential reads, an open-loop
// phase of reads alone, more sequential reads, then open-loop reads
// beside the write lane's observe/retrain sequence. seq has no
// schedule: it is sent back to back.
type personPlan struct {
	seq, alone, mixed readPlan
	writeSched        []time.Duration
	writes            []writeOp
}

// personSeqOps bounds the sequential phase's requests.
const personSeqOps = 1 << 15

// personSchedules draws the per_person traffic. The same seed gives the
// same plan.
func personSchedules(c *corpus, seed int64, dur time.Duration) personPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x9e55))
	n := len(c.tenants)
	// Zipf rank r is tenant r. Tenant IDs are fixed too, so the hot
	// tenants land on the same registry shards for every seed: which
	// tenants collide in a shard sets the hit ratio, and a seed-driven
	// layout moved it between runs.
	zipf := rand.NewZipf(rng, personZipfS, 1, uint64(n-1))
	cursor := make([]int, n)
	pick := func(p *readPlan, n int) {
		for i := 0; i < n; i++ {
			t := int(zipf.Uint64())
			p.tenant = append(p.tenant, t)
			p.row = append(p.row, cursor[t]%len(c.tenants[t].readX))
			cursor[t]++
		}
	}
	draw := func(rate float64, d time.Duration) readPlan {
		p := readPlan{sched: poissonSchedule(rng, rate, arrivals(rate, d, minTailSamples))}
		pick(&p, len(p.sched))
		return p
	}
	var plan personPlan
	pick(&plan.seq, personSeqOps)
	plan.alone = draw(personAloneRate, dur/5)
	plan.mixed = draw(personMixedRate, dur*2/5)

	obsCursor := make([]int, n)
	pending := make([]int, n)
	for retrains := 0; retrains < personRetrains; {
		t := rng.Intn(n)
		td := &c.tenants[t]
		X := make([][]float64, personObserveRow)
		y := make([]int, personObserveRow)
		for j := range X {
			k := obsCursor[t] % len(td.observeX)
			X[j], y[j] = td.observeX[k], td.observeY[k]
			obsCursor[t]++
		}
		body, _ := json.Marshal(map[string]any{"rows": X, "labels": y})
		plan.writes = append(plan.writes, writeOp{tenant: t, body: body, rows: len(X)})
		pending[t] += len(X)
		if pending[t] >= personRetrainEvery {
			plan.writes = append(plan.writes, writeOp{tenant: t, retrain: true, body: []byte("{}")})
			pending[t] = 0
			retrains++
		}
	}
	// Writes are evenly spaced over the mixed phase, so the retrain load
	// the reads compete with stays level through it.
	span := plan.mixed.sched[len(plan.mixed.sched)-1]
	plan.writeSched = make([]time.Duration, len(plan.writes))
	for i := range plan.writeSched {
		plan.writeSched[i] = span * time.Duration(i) / time.Duration(len(plan.writes))
	}
	return plan
}

func runPerPerson(e *env, st *stack) (*passResult, error) {
	c := e.corpus
	plan := personSchedules(c, e.seed, e.seconds)
	readBodies := make([][][]byte, len(c.tenants))
	for t := range c.tenants {
		readBodies[t] = featureBodies(c.tenants[t].readX)
	}
	// Reads alone use every connection; beside the write lane they keep
	// to one connection per lane, so reads and writes never share one.
	aloneClient, readClient, writeClient := newClient(e.conns), newClient(e.conns-1), newClient(1)
	defer readClient.CloseIdleConnections()
	defer writeClient.CloseIdleConnections()
	reads := func(rp *readPlan, client *http.Client) func(i int) op {
		return func(i int) op {
			t, row := rp.tenant[i], rp.row[i]
			url := st.url + "/t/" + c.tenants[t].id + "/predict"
			return op{
				rows:  1,
				send:  func() (int, []byte, error) { return post(client, url, readBodies[t][row]) },
				check: func(status int, body []byte) error { _, err := checkLabel(status, body, c.classes); return err },
			}
		}
	}
	writeOpAt := func(i int) op {
		w := plan.writes[i]
		path := "/observe"
		if w.retrain {
			path = "/retrain"
		}
		url := st.url + "/t/" + c.tenants[w.tenant].id + path
		return op{
			rows: w.rows,
			send: func() (int, []byte, error) { return post(writeClient, url, w.body) },
			check: func(status int, body []byte) error {
				if status != 200 {
					return fmt.Errorf("%s: status %d: %s", path, status, body)
				}
				return nil
			},
		}
	}
	// Before the clock: buffer every tenant's warm rows, as a server that
	// has been taking observations would hold them, and send one read.
	for _, t := range c.tenants {
		if err := st.tt.ObserveTenantBatch(t.id, t.warmX, t.warmY); err != nil {
			return nil, err
		}
	}
	warm := reads(&plan.alone, aloneClient)(0)
	if status, body, err := warm.send(); err != nil || status != 200 {
		return nil, fmt.Errorf("warm-up read: %v %d %s", err, status, body)
	}

	e.begin()
	// The sequential phase runs in two halves, before and after the
	// open-loop reads, so the gated latency samples the host over more
	// of the run. The second half continues the first one's sequence.
	seqOps := reads(&plan.seq, readClient)
	seq := closedLoop(1, e.seconds/5, personSeqOps, seqOps)
	alone := openLoop(e.conns, plan.alone.sched, reads(&plan.alone, aloneClient))
	aloneClient.CloseIdleConnections()
	off := seq.sent
	seq = seq.concat(closedLoop(1, e.seconds/5, personSeqOps-off, func(i int) op { return seqOps(off + i) }))
	var writeRes *laneResult
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		writeRes = openLoop(1, plan.writeSched, writeOpAt)
	}()
	mixed := openLoop(e.conns-1, plan.mixed.sched, reads(&plan.mixed, readClient))
	<-writeDone
	e.end()

	p := &passResult{e2e: map[string]float64{}, read: []*laneResult{seq, alone, mixed}, write: writeRes}
	p.count(seq, alone, mixed, writeRes)
	var retrainLat []time.Duration
	for i, w := range plan.writes {
		if w.retrain && writeRes.errs[i] == nil {
			retrainLat = append(retrainLat, writeRes.lat[i])
		}
	}

	// Correctness gate and accuracy: once both lanes have stopped, replay
	// each tenant's held-out rows over HTTP and compare with the
	// registry's own view of that tenant.
	hit, total := 0, 0
	for _, t := range c.tenants {
		body, _ := json.Marshal(map[string][][]float64{"rows": t.heldX})
		status, resp, err := post(readClient, st.url+"/t/"+t.id+"/predict_batch", body)
		if err != nil {
			return nil, err
		}
		labels, err := checkLabels(status, resp, len(t.heldX))
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("tenant %s replay: %v", t.id, err))
			continue
		}
		view, err := st.reg.Resolve(t.id)
		if err != nil {
			return nil, err
		}
		direct, err := view.PredictBatch(t.heldX)
		if err != nil {
			return nil, err
		}
		for j := range labels {
			if labels[j] != direct[j] {
				p.problems = append(p.problems, fmt.Sprintf("tenant %s row %d: served %d, registry view says %d", t.id, j, labels[j], direct[j]))
				break
			}
			if labels[j] == t.heldY[j] {
				hit++
			}
		}
		total += len(labels)
	}
	if rs := st.mon.Status(); rs.Detections != 0 {
		p.problems = append(p.problems, fmt.Sprintf("reliability monitor detected %d corruptions on a fault-free run", rs.Detections))
	}

	seqLat, err := summarize(seq, 99)
	if err != nil {
		return nil, err
	}
	aloneLat, err := summarize(alone, 99)
	if err != nil {
		return nil, err
	}
	mixedLat, err := summarize(mixed, 99)
	if err != nil {
		return nil, err
	}
	retrain := newLatencies(retrainLat)
	rTail := tailPercentile(retrain.n())
	// Reads alone at a fixed offer: the rate drops only when the stack
	// falls behind. The sequential phase's rate would follow its mean,
	// which cold loads and stalls swing by a third between runs.
	rps := float64(alone.rowsOK()) / alone.wall.Seconds()
	p.e2e["p50_ms"] = seqLat.mid.p50
	p.e2e["p90_ms"] = seqLat.mid.tail
	p.e2e["rows_per_s"] = rps
	p.e2e["accuracy"] = float64(hit) / float64(total)
	p.add("predict_p50_ms.seq", seqLat.mid.p50, "ms", "sequential, one connection, "+blockNote(seqLat, 0))
	p.add("predict_p90_ms.seq", seqLat.mid.tail, "ms", "")
	p.add("predict_p50_ms", aloneLat.mid.p50, "ms", "reads alone, "+blockNote(aloneLat, personAloneRate))
	p.add("predict_p90_ms", aloneLat.mid.tail, "ms", "")
	p.add(fmt.Sprintf("predict_p%g_ms", aloneLat.p), aloneLat.tail.tail, "ms", "")
	p.add("predict_p50_ms.mixed", mixedLat.mid.p50, "ms", "beside writes, "+blockNote(mixedLat, personMixedRate))
	p.add("predict_p90_ms.mixed", mixedLat.mid.tail, "ms", "")
	p.add(fmt.Sprintf("predict_p%g_ms.mixed", mixedLat.p), mixedLat.tail.tail, "ms", "")
	p.add("retrain_p50_ms", retrain.p50(), "ms", fmt.Sprintf("n=%d", retrain.n()))
	p.add(fmt.Sprintf("retrain_p%g_ms", rTail), retrain.at(rTail), "ms", fmt.Sprintf("n=%d; highest percentile with 10 samples beyond", retrain.n()))
	p.add("rows_per_s", rps, "1/s", fmt.Sprintf("reads alone at %.0f rps offered; %d rows observed in the mixed phase", personAloneRate, writeRes.rowsOK()))
	p.add("sequential_rps", blockRate(seq), "1/s", fmt.Sprintf("one connection, median of %d windows", maxBlocks))
	return p, nil
}

// tenantDir returns a fresh delta-store directory inside the run dir.
func tenantDir(e *env, tag string) (string, error) {
	dir := filepath.Join(e.workdir, "tenants-"+tag)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func blockNote(l laneLatency, rate float64) string {
	at := ""
	if rate > 0 {
		at = fmt.Sprintf("%.0f rps, ", rate)
	}
	return fmt.Sprintf("%sn=%d; p50 and p90 over %d blocks, tail over %d", at, l.mid.n, l.mid.blocks, l.tail.blocks)
}
