package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"boosthd/internal/obs"
	"boosthd/internal/serve"
)

// layerSnap is every public counter the traced run reads, taken at the
// start and at the end of the measured phases.
type layerSnap struct {
	srv     serve.Stats
	ten     serve.TenantStats
	rel     serve.ReliabilityStatus
	stages  [obs.NumStages]int64
	rows    uint64
	cold    obs.HistSnapshot
	sampled uint64

	busy   snap
	reqB   int64
	non2xx int64

	load, save, compact snap
	observe, retrain    snap
	swapped             int64

	allocBytes, gcCycles uint64
	cpu                  time.Duration
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine-wide CPU time and the part of it the
// hypervisor stole, in clock ticks, from /proc/stat. Both are 0 where
// the file is missing.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (st *stack) snapshot() layerSnap {
	s := layerSnap{srv: st.srv.Stats(), sampled: st.ob.Tracer.Sampled(), cold: st.ob.ColdLoad.Snapshot()}
	for _, b := range st.ob.Stages.Snapshot() {
		for i, ns := range b.NS {
			s.stages[i] += ns
		}
		s.rows += b.Rows
	}
	if st.reg != nil {
		s.ten = st.reg.Stats()
	}
	if st.mon != nil {
		s.rel = st.mon.Status()
	}
	if p := st.httpProbe; p != nil {
		s.busy = p.busy[routeRead].snap()
		s.reqB = p.bytes[routeRead].Load()
		s.non2xx = p.non2xx[routeRead].Load() + p.non2xx[routeWrite].Load()
	}
	if p := st.storeProbe; p != nil {
		s.load, s.save, s.compact = p.load.snap(), p.save.snap(), p.compact.snap()
	}
	if p := st.trainerProbe; p != nil {
		s.observe, s.retrain, s.swapped = p.observe.snap(), p.retrain.snap(), p.swapped.Load()
	}
	metrics.Read(runtimeSamples)
	s.allocBytes = runtimeSamples[0].Value.Uint64()
	s.gcCycles = runtimeSamples[1].Value.Uint64()
	s.cpu = processCPU()
	return s
}

func meanOf(d snap, before snap) float64 {
	n := d.n - before.n
	if n <= 0 {
		return 0
	}
	return float64(d.ns-before.ns) / float64(n)
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// reconcileMargin is the share of the client round trip the traced
// account may leave unattributed before the run flags it.
const reconcileMargin = 0.10

// layerAccount is the traced run's per-layer result.
type layerAccount struct {
	metrics map[string]float64
	// The round-trip reconciliation, in ns per read request.
	rtt, transport, self, queue, encode, score, aggregate float64
	unattributed                                          float64
	spans                                                 int // program spans; 0 on base /predict_batch
}

// account turns two snapshots, the pass's client-side results and the
// trace ring into the per-layer metrics.
func (st *stack) account(b, a layerSnap, p *passResult, tenantDir string, setups []setupTimes) *layerAccount {
	m := map[string]float64{}
	acc := &layerAccount{metrics: m}

	// client
	var rttSum float64
	var reads int
	var lags []time.Duration
	for _, l := range p.read {
		for i := 0; i < l.sent; i++ {
			if l.errs[i] == nil {
				rttSum += float64(l.rtt[i])
				reads++
				lags = append(lags, l.lag[i])
			}
		}
	}
	acc.rtt = ratio(rttSum, float64(reads))
	busy := meanOf(a.busy, b.busy)
	acc.transport = acc.rtt - busy
	lagLat := newLatencies(lags)
	m["client.rtt_ns"] = acc.rtt
	m["client.transport_ns_per_req"] = acc.transport
	m["client.lag_p99_ms"] = lagLat.at(min(99, tailPercentile(lagLat.n())))

	// Spans of this pass: the newest ones in the ring.
	spans := st.ob.Tracer.Traces(int(a.sampled - b.sampled))
	var adm, total float64
	var b1Enc float64
	var b1Batches int
	b1Seen := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Err != "" {
			continue
		}
		acc.spans++
		adm += float64(sp.StageNS[obs.StageAdmission])
		acc.queue += float64(sp.StageNS[obs.StageQueue])
		acc.encode += float64(sp.StageNS[obs.StageEncode])
		acc.score += float64(sp.StageNS[obs.StageScore])
		acc.aggregate += float64(sp.StageNS[obs.StageAggregate])
		total += float64(sp.TotalNS)
		if sp.BatchSize == 1 && !b1Seen[sp.Batch] {
			b1Seen[sp.Batch] = true
			b1Enc += float64(sp.StageNS[obs.StageEncode])
			b1Batches++
		}
	}
	dEnc := float64(a.stages[obs.StageEncode] - b.stages[obs.StageEncode])
	dScore := float64(a.stages[obs.StageScore] - b.stages[obs.StageScore])
	dAgg := float64(a.stages[obs.StageAggregate] - b.stages[obs.StageAggregate])
	dRows := float64(a.rows - b.rows)
	if acc.spans > 0 {
		n := float64(acc.spans)
		adm, total = adm/n, total/n
		acc.queue, acc.encode, acc.score, acc.aggregate = acc.queue/n, acc.encode/n, acc.score/n, acc.aggregate/n
		// The program's own span covers the handler from body decode to
		// the batcher's answer; the middleware sees the rest of ServeHTTP.
		acc.self = adm + (busy - total)
	} else {
		// No program span (base /predict_batch): ServeHTTP has no child
		// span, so all of it is self time. The engine's stage account
		// cannot stand in for one: it sums the parallel block workers'
		// time, which exceeds the call's wall time.
		acc.self = busy
	}
	acc.unattributed = acc.rtt - (acc.transport + acc.self + acc.queue + acc.encode + acc.score + acc.aggregate)

	m["serve.http.busy_ns_per_req"] = busy
	m["serve.http.self_ns_per_req"] = acc.self
	m["serve.http.req_bytes"] = ratio(float64(a.reqB-b.reqB), float64(reads))
	m["serve.http.non2xx"] = float64(a.non2xx - b.non2xx)
	m["reconcile.unattributed_share"] = ratio(acc.unattributed, acc.rtt)

	// batcher: base /predict_batch rows bypass it but share its counters.
	dServed := float64(a.srv.Served-b.srv.Served) - float64(p.batchRows)
	dCalls := float64(a.srv.Batches-b.srv.Batches) - float64(p.batchOps)
	m["serve.batcher.rows_per_call"] = ratio(dServed, dCalls)
	m["serve.batcher.lone_share"] = ratio(float64(a.srv.LoneFastPath-b.srv.LoneFastPath), float64(a.srv.Flushes-b.srv.Flushes))
	m["serve.batcher.straggler_fires"] = float64(a.srv.StragglerFires - b.srv.StragglerFires)
	m["serve.batcher.coalesced_share"] = ratio(float64(a.srv.CoalescedRows-b.srv.CoalescedRows), dServed)
	m["serve.batcher.queue_ns_per_req"] = acc.queue

	// infer: batch-1 calls from the spans, the rest from the stage account.
	b1Mean := ratio(b1Enc, float64(b1Batches))
	b1Rows := 0.0
	if len(spans) > 0 {
		// Scale the ring's batch-1 count up if the ring wrapped.
		b1Rows = float64(b1Batches) * ratio(float64(a.sampled-b.sampled), float64(len(spans)))
	}
	m["infer.encode_ns_per_row.b1"] = b1Mean
	m["infer.encode_ns_per_row.bN"] = ratio(dEnc-b1Mean*b1Rows, dRows-b1Rows)
	m["infer.score_ns_per_row"] = ratio(dScore, dRows)
	m["infer.aggregate_ns_per_row"] = ratio(dAgg, dRows)

	// tenant registry
	hits, misses := float64(a.ten.Hits-b.ten.Hits), float64(a.ten.Misses-b.ten.Misses)
	m["serve.tenant.hit_ratio"] = ratio(hits, hits+misses)
	m["serve.tenant.cold_loads"] = float64(a.ten.ColdLoads - b.ten.ColdLoads)
	m["serve.tenant.cold_load_ns"] = ratio(float64(a.cold.Sum-b.cold.Sum), float64(a.cold.Count-b.cold.Count))
	m["serve.tenant.evictions"] = float64(a.ten.Evictions - b.ten.Evictions)
	m["serve.tenant.resident_bytes"] = float64(a.ten.ResidentBytes)

	// delta store
	m["serve.deltastore.load_ns"] = meanOf(a.load, b.load)
	m["serve.deltastore.save_ns"] = meanOf(a.save, b.save)
	m["serve.deltastore.compact_ns"] = meanOf(a.compact, b.compact)
	m["serve.deltastore.disk_bytes"] = float64(dirBytes(tenantDir))

	// trainer
	m["trainer.observe_ns"] = meanOf(a.observe, b.observe)
	m["trainer.retrain_ns"] = meanOf(a.retrain, b.retrain)
	m["trainer.retrain_swapped_share"] = ratio(float64(a.swapped-b.swapped), float64(a.retrain.n-b.retrain.n))

	// reliability
	m["reliability.scrubs"] = float64(a.rel.Scrubs - b.rel.Scrubs)
	m["reliability.scrub_ms"] = a.rel.LastScrubMS
	m["reliability.detections"] = float64(a.rel.Detections - b.rel.Detections)

	// runtime: per measured request of either lane.
	ops := float64(reads)
	if p.write != nil {
		ops += float64(p.write.sent - p.write.failed())
	}
	m["runtime.alloc_bytes_per_op"] = ratio(float64(a.allocBytes-b.allocBytes), ops)
	m["runtime.gc_cycles"] = float64(a.gcCycles - b.gcCycles)
	m["process.cpu_us_per_op"] = ratio(float64(a.cpu-b.cpu)/1e3, ops)

	// set-up, median over the set-ups of the run
	pick := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	m["setup.load_engine_s"] = pick(func(s setupTimes) time.Duration { return s.loadEngine })
	m["setup.monitor_sign_s"] = pick(func(s setupTimes) time.Duration { return s.monitorSign })
	m["setup.registry_s"] = pick(func(s setupTimes) time.Duration { return s.registry })
	return acc
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// layerNames lists the per-layer metrics in report order with units.
var layerNames = []struct{ name, unit string }{
	{"client.rtt_ns", "ns"},
	{"client.transport_ns_per_req", "ns"},
	{"client.lag_p99_ms", "ms"},
	{"serve.http.busy_ns_per_req", "ns"},
	{"serve.http.self_ns_per_req", "ns"},
	{"serve.http.req_bytes", "bytes"},
	{"serve.http.non2xx", "count"},
	{"serve.batcher.rows_per_call", "rows"},
	{"serve.batcher.lone_share", "ratio"},
	{"serve.batcher.straggler_fires", "count"},
	{"serve.batcher.coalesced_share", "ratio"},
	{"serve.batcher.queue_ns_per_req", "ns"},
	{"infer.encode_ns_per_row.b1", "ns"},
	{"infer.encode_ns_per_row.bN", "ns"},
	{"infer.score_ns_per_row", "ns"},
	{"infer.aggregate_ns_per_row", "ns"},
	{"serve.tenant.hit_ratio", "ratio"},
	{"serve.tenant.cold_loads", "count"},
	{"serve.tenant.cold_load_ns", "ns"},
	{"serve.tenant.evictions", "count"},
	{"serve.tenant.resident_bytes", "bytes"},
	{"serve.deltastore.load_ns", "ns"},
	{"serve.deltastore.save_ns", "ns"},
	{"serve.deltastore.compact_ns", "ns"},
	{"serve.deltastore.disk_bytes", "bytes"},
	{"trainer.observe_ns", "ns"},
	{"trainer.retrain_ns", "ns"},
	{"trainer.retrain_swapped_share", "ratio"},
	{"reliability.scrubs", "count"},
	{"reliability.scrub_ms", "ms"},
	{"reliability.detections", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"process.cpu_us_per_op", "us"},
	{"setup.load_engine_s", "s"},
	{"setup.monitor_sign_s", "s"},
	{"setup.registry_s", "s"},
	{"reconcile.unattributed_share", "ratio"},
	{"trace.overhead.p50_ms", "ms"},
	{"trace.overhead.p90_ms", "ms"},
}
