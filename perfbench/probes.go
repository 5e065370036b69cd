package main

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/serve"
)

// The probes measure layers from outside the program: each wraps one
// public seam, forwards every call unchanged, and counts calls and the
// wall time spent below the seam. They are installed only in the traced
// run.

// route classes the HTTP probe and the client count separately.
const (
	routeRead  = iota // predict and predict_batch, base or tenant
	routeWrite        // tenant observe and retrain
	routeOther        // healthz and the rest
	numRoutes
)

func routeOf(path string) int {
	switch {
	case strings.HasSuffix(path, "/predict"), strings.HasSuffix(path, "/predict_batch"):
		return routeRead
	case strings.HasSuffix(path, "/observe"), strings.HasSuffix(path, "/retrain"):
		return routeWrite
	}
	return routeOther
}

// counter accumulates calls and nanoseconds.
type counter struct {
	n, ns atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.n.Add(1)
	c.ns.Add(int64(d))
}

// snap is a point-in-time copy of a counter.
type snap struct{ n, ns int64 }

func (c *counter) snap() snap { return snap{c.n.Load(), c.ns.Load()} }

// httpProbe is middleware around the serve handler. busy is the time
// inside ServeHTTP per route class.
type httpProbe struct {
	next   http.Handler
	busy   [numRoutes]counter
	bytes  [numRoutes]atomic.Int64
	non2xx [numRoutes]atomic.Int64
}

func (p *httpProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	p.next.ServeHTTP(sw, r)
	rc := routeOf(r.URL.Path)
	p.busy[rc].add(time.Since(start))
	if r.ContentLength > 0 {
		p.bytes[rc].Add(r.ContentLength)
	}
	if sw.status < 200 || sw.status > 299 {
		p.non2xx[rc].Add(1)
	}
}

// statusWriter records the response status. Unwrap lets
// http.ResponseController reach the connection's writer, so handlers
// that lift their write deadline behave as they do unwrapped.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// storeProbe wraps a serve.DeltaStore. wrapStore returns a value that
// also implements serve.DeltaCompactor exactly when the wrapped store
// does, because the registry's scrub pass type-asserts for it.
type storeProbe struct {
	next                serve.DeltaStore
	load, save, compact counter
}

func (p *storeProbe) Load(tenant string, base *boosthd.Model, baseFP uint64) (*boosthd.Delta, error) {
	start := time.Now()
	d, err := p.next.Load(tenant, base, baseFP)
	p.load.add(time.Since(start))
	return d, err
}

func (p *storeProbe) Save(tenant string, d *boosthd.Delta, baseFP uint64) error {
	start := time.Now()
	err := p.next.Save(tenant, d, baseFP)
	p.save.add(time.Since(start))
	return err
}

// compactingStoreProbe adds the DeltaCompactor face.
type compactingStoreProbe struct {
	*storeProbe
	compactor serve.DeltaCompactor
}

func (p compactingStoreProbe) Compact(tenant string, d *boosthd.Delta, baseFP uint64) (bool, error) {
	start := time.Now()
	did, err := p.compactor.Compact(tenant, d, baseFP)
	p.compact.add(time.Since(start))
	return did, err
}

func wrapStore(s serve.DeltaStore) serve.DeltaStore {
	p := &storeProbe{next: s}
	if c, ok := s.(serve.DeltaCompactor); ok {
		return compactingStoreProbe{storeProbe: p, compactor: c}
	}
	return p
}

// probeOf returns the counters behind a store wrapStore returned.
func probeOf(s serve.DeltaStore) *storeProbe {
	switch p := s.(type) {
	case *storeProbe:
		return p
	case compactingStoreProbe:
		return p.storeProbe
	}
	return nil
}

// trainerProbe wraps serve.TenantTrainer, the only interface the
// handler calls the tenant trainer through.
type trainerProbe struct {
	next             serve.TenantTrainer
	observe, retrain counter
	swapped          atomic.Int64
}

func (p *trainerProbe) ObserveTenant(tenant string, x []float64, label int) error {
	start := time.Now()
	err := p.next.ObserveTenant(tenant, x, label)
	p.observe.add(time.Since(start))
	return err
}

func (p *trainerProbe) ObserveTenantBatch(tenant string, X [][]float64, y []int) error {
	start := time.Now()
	err := p.next.ObserveTenantBatch(tenant, X, y)
	p.observe.add(time.Since(start))
	return err
}

func (p *trainerProbe) RetrainTenant(tenant string) (serve.RetrainReport, error) {
	start := time.Now()
	rep, err := p.next.RetrainTenant(tenant)
	p.retrain.add(time.Since(start))
	if err == nil && rep.Swapped {
		p.swapped.Add(1)
	}
	return rep, err
}
