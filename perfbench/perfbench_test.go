package main

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/serve"
)

func TestSchedulesRepeatForASeed(t *testing.T) {
	c, err := buildCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []any {
		p := personSchedules(c, seed, 20*time.Second)
		rng := rand.New(rand.NewSource(seed))
		return []any{p.alone, p.mixed, p.writeSched, p.writes, poissonSchedule(rng, 300, 500), bulkSizes(rng)}
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	other := draw(8)
	for i := range a {
		if reflect.DeepEqual(a[i], other[i]) {
			t.Errorf("schedule part %d did not change with the seed", i)
		}
	}
	c2, err := buildCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.testX, c2.testX) || !reflect.DeepEqual(c.tenants, c2.tenants) {
		t.Fatal("the same seed gave different request rows")
	}
}

func TestBulkSizesStayInRange(t *testing.T) {
	for _, n := range bulkSizes(rand.New(rand.NewSource(1))) {
		if n < 16 || n > 1024 {
			t.Fatalf("batch of %d rows outside [16, 1024]", n)
		}
	}
}

func TestPersonSchedulesRetrainCount(t *testing.T) {
	c, err := buildCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	p := personSchedules(c, 3, 20*time.Second)
	if len(p.writeSched) != len(p.writes) {
		t.Fatalf("%d write arrivals for %d write ops", len(p.writeSched), len(p.writes))
	}
	n := 0
	for _, op := range p.writes {
		if op.retrain {
			n++
		}
	}
	if n != personRetrains || tailPercentile(n) < 90 {
		t.Fatalf("%d retrains; want %d, enough for a p90", n, personRetrains)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	l := newLatencies(ds)
	if v, err := l.tail(99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 ms = %v, %v; want 990", v, err)
	}
	if got := l.p50(); got != 500 {
		t.Fatalf("p50 of 1..1000 ms = %v, want 500", got)
	}
	if _, err := newLatencies(ds[:999]).tail(99); err == nil {
		t.Fatal("999 samples accepted for a p99")
	}

	// A closed-loop phase that sent too few requests for its percentile
	// reports the highest one its sample supports.
	r := newLaneResult(500)
	for i := range ds[:500] {
		r.lat[i] = ds[i]
	}
	r.sent = 500
	l2, err := summarize(r, 99)
	if err != nil || l2.p != 95 || l2.mid.p50 <= 0 {
		t.Fatalf("summarize of 500 samples at p99 = %+v, %v; want a p95", l2, err)
	}
}

func TestConcatShiftsSecondLane(t *testing.T) {
	a, b := newLaneResult(8), newLaneResult(8)
	for i := 0; i < 3; i++ {
		a.lat[i], a.done[i], a.rows[i] = time.Millisecond, time.Duration(i+1)*time.Second, 1
	}
	a.sent, a.wall = 3, 3*time.Second
	for i := 0; i < 2; i++ {
		b.lat[i], b.done[i], b.rows[i] = 2*time.Millisecond, time.Duration(i+1)*time.Second, 1
	}
	b.sent, b.wall = 2, 2*time.Second
	c := a.concat(b)
	if c.sent != 5 || c.wall != 5*time.Second || c.rowsOK() != 5 {
		t.Fatalf("concat: sent %d, wall %v, rows %d; want 5, 5s, 5", c.sent, c.wall, c.rowsOK())
	}
	for i, want := range []time.Duration{1, 2, 3, 4, 5} {
		if c.done[i] != want*time.Second {
			t.Fatalf("done[%d] = %v, want %v", i, c.done[i], want*time.Second)
		}
	}
	if c.lat[4] != 2*time.Millisecond || a.lat[3] != 0 {
		t.Fatalf("concat wrote into its first lane or lost the second's latencies")
	}
}

// plainStore is a DeltaStore without the compaction face.
type plainStore struct{ loads, saves int }

func (s *plainStore) Load(string, *boosthd.Model, uint64) (*boosthd.Delta, error) {
	s.loads++
	return nil, serve.ErrNoDelta
}

func (s *plainStore) Save(string, *boosthd.Delta, uint64) error {
	s.saves++
	return nil
}

func TestStoreProbeForwardsInterfaces(t *testing.T) {
	fs := serve.NewFileDeltaStore(t.TempDir())
	wrapped := wrapStore(fs)
	c, ok := wrapped.(serve.DeltaCompactor)
	if !ok {
		t.Fatal("wrapping a FileDeltaStore hid its DeltaCompactor face")
	}
	if _, err := c.Compact("t1", &boosthd.Delta{}, 1); err != nil {
		t.Fatal(err)
	}
	if got := probeOf(wrapped).compact.n.Load(); got != 1 {
		t.Fatalf("compact calls counted %d, want 1", got)
	}

	ps := &plainStore{}
	w := wrapStore(ps)
	if _, ok := w.(serve.DeltaCompactor); ok {
		t.Fatal("wrapping a store without Compact added a DeltaCompactor face")
	}
	if _, err := w.Load("t1", nil, 0); !errors.Is(err, serve.ErrNoDelta) {
		t.Fatalf("Load error %v not forwarded", err)
	}
	if err := w.Save("t1", nil, 0); err != nil {
		t.Fatal(err)
	}
	p := probeOf(w)
	if ps.loads != 1 || ps.saves != 1 || p.load.n.Load() != 1 || p.save.n.Load() != 1 {
		t.Fatalf("calls not forwarded and counted: store %+v, probe %d/%d", ps, p.load.n.Load(), p.save.n.Load())
	}
}

// fakeTrainer records what reaches it through the probe.
type fakeTrainer struct{ observed, retrained int }

func (f *fakeTrainer) ObserveTenant(string, []float64, int) error { f.observed++; return nil }
func (f *fakeTrainer) ObserveTenantBatch(_ string, X [][]float64, _ []int) error {
	f.observed += len(X)
	return nil
}
func (f *fakeTrainer) RetrainTenant(string) (serve.RetrainReport, error) {
	f.retrained++
	return serve.RetrainReport{Swapped: f.retrained%2 == 1}, nil
}

func TestTrainerProbeForwards(t *testing.T) {
	f := &fakeTrainer{}
	var tt serve.TenantTrainer = &trainerProbe{next: f}
	_ = tt.ObserveTenant("a", nil, 0)
	_ = tt.ObserveTenantBatch("a", make([][]float64, 3), make([]int, 3))
	if _, err := tt.RetrainTenant("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tt.RetrainTenant("a"); err != nil {
		t.Fatal(err)
	}
	p := tt.(*trainerProbe)
	if f.observed != 4 || f.retrained != 2 {
		t.Fatalf("trainer saw %d observed rows and %d retrains", f.observed, f.retrained)
	}
	if p.observe.n.Load() != 2 || p.retrain.n.Load() != 2 || p.swapped.Load() != 1 {
		t.Fatalf("probe counted %d observes, %d retrains, %d swaps", p.observe.n.Load(), p.retrain.n.Load(), p.swapped.Load())
	}
}

func TestHTTPProbeKeepsResponseController(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The retrain handler lifts its write deadline this way; the
		// probe's writer must not make it fail.
		if err := http.NewResponseController(w).SetWriteDeadline(time.Time{}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/t/a/retrain" {
			w.WriteHeader(http.StatusConflict)
		}
	})
	p := &httpProbe{next: inner}
	srv := httptest.NewServer(p)
	defer srv.Close()
	for path, want := range map[string]int{"/predict": 200, "/t/a/retrain": 409} {
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		drain(resp)
		if resp.StatusCode != want {
			t.Fatalf("%s answered %d through the probe, want %d", path, resp.StatusCode, want)
		}
	}
	if p.busy[routeRead].n.Load() != 1 || p.busy[routeWrite].n.Load() != 1 {
		t.Fatal("requests not counted by route")
	}
	if p.non2xx[routeRead].Load() != 0 || p.non2xx[routeWrite].Load() != 1 {
		t.Fatal("non-2xx answers miscounted")
	}
}
