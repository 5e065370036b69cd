// Command perfbench is the repository's end-to-end serving benchmark. It
// runs the real serving stack in-process behind a loopback listener —
// serve.LoadEngine, serve.NewServer with obs wired, serve.NewHandler, and
// for per_person the tenant registry over a FileDeltaStore, the tenant
// trainer and the reliability monitor — and drives it with seeded
// synthetic WESAD traffic over at most one connection per core.
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload wearable|bulk|per_person --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once traced, and prints the
// per-layer metrics, their reconciliation to the client round trip and
// the tracing overhead. The last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupReps is how many times a run builds the stack; setup_s is the
// median, and the last stack serves the traffic.
const setupReps = 11

func main() {
	name := flag.String("workload", "", "wearable, bulk or per_person")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for checkpoints and delta stores")
	prepare := flag.String("prepare", "", "internal: train the base model and persist tenant deltas into this directory, then exit")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workdir, *prepare); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed int64, seconds, trace int, workdir, prepare string) error {
	w, err := lookup(name)
	if err != nil {
		return err
	}
	if prepare != "" {
		return prepareDir(w, seed, prepare)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The model is trained, and tenant deltas persisted, in a child
	// process before any clock starts, so training memory never counts
	// in peak_rss_mb.
	prep := filepath.Join(dir, "prepared")
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-prepare", prep)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	c, err := buildCorpus(seed)
	if err != nil {
		return err
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, workdir: dir,
		conns: runtime.NumCPU(), corpus: c, ckpt: filepath.Join(prep, "model.bhde")}
	if e.conns < 2 {
		e.conns = 2 // per_person needs one connection per lane
	}
	fmt.Printf("perfbench %s: seed %d, %d s, %d connections, GOMAXPROCS %d, %s\n",
		name, seed, seconds, e.conns, runtime.GOMAXPROCS(0), runtime.Version())

	plain, err := measure(e, w, false, prep)
	if err != nil {
		return err
	}
	ok := plain.report(w)
	res := result{Correct: ok, Attempted: plain.pass.attempted, Failed: plain.pass.failed, Metrics: map[string]metricValue{}}
	if trace == 0 {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{plain.e2e[m.name], m.unit}
		}
		return finish(res)
	}

	traced, err := measure(e, w, true, prep)
	if err != nil {
		return err
	}
	res.Correct = traced.report(w) && res.Correct
	res.Attempted += traced.pass.attempted
	res.Failed += traced.pass.failed
	acc := traced.acc
	acc.metrics["trace.overhead.p50_ms"] = traced.e2e["p50_ms"] - plain.e2e["p50_ms"]
	acc.metrics["trace.overhead.p90_ms"] = traced.e2e["p90_ms"] - plain.e2e["p90_ms"]
	fmt.Println("tracing overhead (traced minus untraced):")
	for _, m := range endToEnd {
		fmt.Printf("  %-14s %+.4f %s (untraced %.4f, traced %.4f)\n", m.name,
			traced.e2e[m.name]-plain.e2e[m.name], m.unit, plain.e2e[m.name], traced.e2e[m.name])
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, l := range layerNames {
		v := acc.metrics[l.name]
		fmt.Printf("  %-34s %14.4f %s\n", l.name, v, l.unit)
		res.Metrics[l.name] = metricValue{v, l.unit}
	}
	acc.print(w)
	return finish(res)
}

// measurement is one pass of a workload over freshly built stacks.
type measurement struct {
	pass   *passResult
	e2e    map[string]float64
	setups []setupTimes
	acc    *layerAccount
	// steal is the share of the machine's CPU time the hypervisor took
	// during the pass: a diagnostic for a noisy run, not a metric.
	steal float64
}

// measure builds the stack setupReps times, keeps the last one, and
// runs the workload over it once.
func measure(e *env, w workload, traced bool, prep string) (*measurement, error) {
	cfg := stackConfig{checkpoint: e.ckpt, backend: w.backend, traced: traced}
	if w.tenants {
		dir, err := tenantDir(e, strconv.FormatBool(traced))
		if err != nil {
			return nil, err
		}
		if err := copyFiles(filepath.Join(prep, "tenants"), dir); err != nil {
			return nil, err
		}
		cfg.tenantDir = dir
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	m := &measurement{}
	var st *stack
	for i := 0; i < setupReps; i++ {
		s, err := startStack(cfg, client)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, s.setup)
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		} else {
			st = s
		}
	}
	var before, after layerSnap
	e.begin, e.end = func() {}, func() {}
	if traced {
		e.begin = func() { before = st.snapshot() }
		e.end = func() { after = st.snapshot() }
	}
	// Collect the discarded stacks' garbage, so every pass starts from
	// the same heap and its GC pacing does not depend on it.
	runtime.GC()
	total0, steal0 := cpuTicks()
	p, err := w.run(e, st)
	total1, steal1 := cpuTicks()
	if cerr := st.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	m.pass = p
	m.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	if traced {
		m.acc = st.account(before, after, p, cfg.tenantDir, m.setups)
	}
	setupS := make([]float64, len(m.setups))
	for i, s := range m.setups {
		setupS[i] = s.total.Seconds()
	}
	m.e2e = map[string]float64{"setup_s": median(setupS), "peak_rss_mb": peakRSSMB()}
	for k, v := range p.e2e {
		m.e2e[k] = v
	}
	return m, nil
}

// report prints the pass's own metric names and its correctness verdict.
func (m *measurement) report(w workload) bool {
	kind := "untraced"
	if m.acc != nil {
		kind = "traced"
	}
	fmt.Printf("%s run of %s:\n", kind, w.name)
	for _, l := range m.pass.report {
		if math.IsNaN(l.value) {
			fmt.Printf("  %-22s %s\n", l.name, l.note)
			continue
		}
		fmt.Printf("  %-22s %12.4f %-5s %s\n", l.name, l.value, l.unit, l.note)
	}
	for _, d := range endToEnd {
		fmt.Printf("  %-22s %12.4f %-5s %s\n", d.name, m.e2e[d.name], d.unit, d.note(w))
	}
	fmt.Printf("  ops: sent %d, succeeded %d, failed %d\n", m.pass.attempted, m.pass.attempted-m.pass.failed, m.pass.failed)
	fmt.Printf("  host: %.1f%% of CPU time stolen by the hypervisor during the pass\n", 100*m.steal)
	for _, p := range m.pass.problems {
		fmt.Printf("  FAIL: %s\n", p)
	}
	return len(m.pass.problems) == 0 && m.pass.failed == 0
}

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []struct {
	name, unit string
	note       func(w workload) string
}{
	{"setup_s", "s", func(workload) string {
		return fmt.Sprintf("median of %d set-ups, LoadEngine to first /healthz 200", setupReps)
	}},
	{"peak_rss_mb", "MB", func(workload) string { return "process peak resident set" }},
	{"accuracy", "ratio", func(workload) string { return "ground-truth match over the workload's rows" }},
	{"p50_ms", "ms", func(w workload) string { return "read lane: " + laneName[w.name] }},
	{"rows_per_s", "1/s", func(w workload) string { return rowsNote[w.name] }},
}

var laneName = map[string]string{
	"wearable":   "sequential /predict, one connection",
	"bulk":       "/predict_batch",
	"per_person": "sequential /t/{id}/predict, one connection",
}

var rowsNote = map[string]string{
	"wearable":   "saturated_rps: closed-loop single-row /predict",
	"bulk":       "closed-loop rows scored per second",
	"per_person": "open-loop reads alone per second at a fixed offer",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func finish(res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// print writes the round-trip reconciliation of the traced run.
func (a *layerAccount) print(w workload) {
	fmt.Println("round trip per read request (ns):")
	fmt.Printf("  client rtt %.0f = transport %.0f + serve.http self %.0f + queue %.0f + encode %.0f + score %.0f + aggregate %.0f + unattributed %.0f\n",
		a.rtt, a.transport, a.self, a.queue, a.encode, a.score, a.aggregate, a.unattributed)
	share := ratio(a.unattributed, a.rtt)
	if a.spans == 0 {
		fmt.Printf("  %s carries no program span: all of ServeHTTP is serve.http self time, and nothing is left unattributed (base: client rtt %.0f ns)\n",
			laneName[w.name], a.rtt)
		return
	}
	verdict := "within"
	if math.Abs(share) > reconcileMargin {
		verdict = "OUTSIDE"
	}
	fmt.Printf("  unattributed share %.4f of client rtt %.0f ns over %d spans: %s the %.2f margin\n",
		share, a.rtt, a.spans, verdict, reconcileMargin)
}

// prepareDir trains the base model and, for tenant workloads, persists
// every tenant's initial delta. It runs in a child process.
func prepareDir(w workload, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ckpt := filepath.Join(dir, "model.bhde")
	if err := trainCheckpoint(seed, ckpt); err != nil {
		return err
	}
	if !w.tenants {
		return nil
	}
	c, err := buildCorpus(seed)
	if err != nil {
		return err
	}
	tdir := filepath.Join(dir, "tenants")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	return persistDeltas(&env{corpus: c, ckpt: ckpt}, tdir)
}

// copyFiles copies the regular files of src into dst.
func copyFiles(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
