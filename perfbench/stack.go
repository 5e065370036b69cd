package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/reliability"
	"boosthd/internal/serve"
	"boosthd/internal/trainer"
)

// stackConfig selects which serving layers a workload runs.
type stackConfig struct {
	checkpoint string
	backend    string
	// tenantDir enables the tenant registry, the tenant trainer and the
	// reliability monitor over a FileDeltaStore rooted there.
	tenantDir string
	// traced wires trace sampling at every request and the outside-in
	// probes (HTTP middleware, store and trainer wrappers).
	traced bool
}

// Tenant-stack sizing. The resident cache holds a third of the tenants,
// so zipf-tail tenants cold-load from the delta store; the background
// period makes scrubs and compactions land several times per run.
const (
	tenantCache   = 8
	tenantShards  = 4
	backgroundDur = 2 * time.Second
	traceRing     = 1 << 16
)

// stack is one in-process serving deployment, wired the way
// boosthd-serve wires it, behind a loopback listener.
type stack struct {
	eng  *infer.Engine
	srv  *serve.Server
	ob   *obs.Serving
	reg  *serve.TenantRegistry
	tt   *trainer.TenantTrainer
	mon  *reliability.Monitor
	http *http.Server
	url  string
	done chan error

	httpProbe    *httpProbe
	storeProbe   *storeProbe
	trainerProbe *trainerProbe

	setup setupTimes
}

// setupTimes splits set-up into the steps the per-layer report names.
type setupTimes struct {
	total, loadEngine, monitorSign, registry time.Duration
}

// startStack builds the stack and returns once /healthz answers 200.
// setup.total runs from the LoadEngine call to that first 200.
func startStack(cfg stackConfig, client *http.Client) (*stack, error) {
	st := &stack{}
	t0 := time.Now()
	eng, err := serve.LoadEngine(cfg.checkpoint, cfg.backend)
	if err != nil {
		return nil, err
	}
	st.setup.loadEngine = time.Since(t0)
	st.eng = eng
	srv, err := serve.NewServer(eng, serve.Config{})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	sample, ring := 0, 0
	if cfg.traced {
		sample, ring = 1, traceRing
	}
	st.ob = obs.NewServing(sample, ring, 0)
	srv.SetObs(st.ob)

	hcfg := serve.HandlerConfig{}
	if cfg.tenantDir != "" {
		t1 := time.Now()
		var store serve.DeltaStore = serve.NewFileDeltaStore(cfg.tenantDir)
		if cfg.traced {
			store = wrapStore(store)
			st.storeProbe = probeOf(store)
		}
		reg, err := serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{
			Store: store, CacheSize: tenantCache, Shards: tenantShards,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.reg = reg
		tt, err := trainer.NewTenantTrainer(reg, trainer.TenantConfig{})
		if err != nil {
			st.close()
			return nil, err
		}
		st.tt = tt
		st.setup.registry = time.Since(t1)
		hcfg.Tenants = reg
		hcfg.TenantTrainer = tt
		if cfg.traced {
			st.trainerProbe = &trainerProbe{next: tt}
			hcfg.TenantTrainer = st.trainerProbe
		}
		t2 := time.Now()
		mon, err := reliability.New(srv, reliability.Config{ScrubEvery: backgroundDur, Journal: st.ob.Journal})
		if err != nil {
			st.close()
			return nil, err
		}
		st.setup.monitorSign = time.Since(t2)
		st.mon = mon
		hcfg.Reliability = mon
		reg.Start(backgroundDur)
		mon.Start()
	}
	var h http.Handler = serve.NewHandler(srv, hcfg)
	if cfg.traced {
		st.httpProbe = &httpProbe{next: h}
		h = st.httpProbe
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	st.done = make(chan error, 1)
	go func() { st.done <- st.http.Serve(ln) }()
	for {
		resp, err := client.Get(st.url + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			st.close()
			return nil, fmt.Errorf("healthz never answered 200: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	st.setup.total = time.Since(t0)
	return st, nil
}

// close stops the background loops, drains the listener and the
// batcher, and waits for every goroutine the stack started.
func (st *stack) close() error {
	var err error
	if st.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = st.http.Shutdown(ctx)
		cancel()
		if serr := <-st.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if st.reg != nil {
		st.reg.Stop()
	}
	if st.mon != nil {
		st.mon.Stop()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	return err
}
