package trainer

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/serve"
)

// Config tunes a Trainer.
type Config struct {
	// BufferCap bounds the label-aware sample buffer (sliding window +
	// per-class reservoirs). Default 4096.
	BufferCap int
	// MinRetrain is the fewest buffered samples a Retrain will refit
	// from; below it the call reports Swapped=false. Default 64.
	MinRetrain int
	// RetrainEvery is the background retrain period; zero means no
	// background loop (retrains are driven manually / over HTTP).
	RetrainEvery time.Duration
	// Backend selects the engine built at swap time: "float" (default)
	// or "binary"/"packed-binary".
	Backend string
	// Mode selects what a retrain recomputes: "full" (default) refits
	// every learner and the alphas from scratch over the buffer;
	// "alphas" keeps the class memories — already shaped by the
	// incremental online updates — and only re-runs the SAMME weighting
	// loop (Model.ReweightAlphas), a much cheaper refresh that
	// re-scores each learner's competence on current data.
	Mode string
	// DisableOnlineUpdate turns off the per-sample incremental model
	// update on Observe, leaving only buffering + periodic retrains.
	DisableOnlineUpdate bool
	// Seed drives the buffer's reservoir sampling. Default 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BufferCap <= 0 {
		c.BufferCap = 4096
	}
	if c.MinRetrain <= 0 {
		c.MinRetrain = 64
	}
	if c.Backend == "" {
		c.Backend = "float"
	}
	if c.Mode == "" {
		c.Mode = "full"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Trainer keeps a serving model fresh from a labeled sample stream. It
// owns the bounded buffer, applies incremental per-learner updates to
// the live model under the learners' write locks (serving stays up —
// batch scorers pin the class memories and interleave safely), and
// refits whole replacement models off the serving path, installing them
// through serve.Server.Swap so zero requests are dropped.
//
// It implements serve.Trainer; all methods are safe for concurrent use.
type Trainer struct {
	cfg Config
	srv *serve.Server
	buf *Buffer

	modelMu sync.RWMutex   // guards the model identity (swapped on retrain)
	model   *boosthd.Model // model behind the currently serving engine

	retrainMu sync.Mutex // serializes Retrain: one refit at a time

	observed atomic.Uint64
	updated  atomic.Uint64
	retrains atomic.Uint64
	failures atomic.Uint64

	lastErrMu sync.Mutex
	lastErr   string

	// observer, when set, is called with the indexes of the learners
	// each applied update actually moved — the trainer side of the
	// trainer×reliability contract (see SetMutationObserver).
	observer atomic.Pointer[func(learners []int)]

	loopMu   sync.Mutex
	stop     chan struct{}
	done     chan struct{}
	stopping bool // stop already signaled, loop not yet confirmed exited
}

// SetMutationObserver registers fn to be called after every applied
// incremental update with the learners it moved. This is the
// trainer×reliability integrity contract: a reliability monitor wires
// its NoteMutation here so each legitimate class-memory mutation is
// followed by a fresh per-learner signature handoff, and strict
// scrubbing (Config.SignedUpdates) no longer has to trust version bumps
// wholesale. Passing nil detaches. Wire it before traffic flows:
// updates applied with no observer registered are unannounced, and a
// strict monitor will read them as corruption.
func (t *Trainer) SetMutationObserver(fn func(learners []int)) {
	if fn == nil {
		t.observer.Store(nil)
		return
	}
	t.observer.Store(&fn)
}

// notifyMutation hands the moved learners to the registered observer.
func (t *Trainer) notifyMutation(learners []int) {
	if len(learners) == 0 {
		return
	}
	if fn := t.observer.Load(); fn != nil {
		(*fn)(learners)
	}
}

// New builds a Trainer over the model behind srv's current serving
// engine: incremental updates write into its learners, and retrains
// clone it. The engine must carry a trainable float class memory — a
// cold-loaded binary snapshot is frozen (its shell model has no real
// class vectors to update, and its quantization never re-thresholds),
// so it is rejected here rather than silently training a model serving
// never sees; serve the float checkpoint with the binary backend
// instead.
func New(srv *serve.Server, cfg Config) (*Trainer, error) {
	if srv == nil {
		return nil, fmt.Errorf("trainer: nil server")
	}
	eng := srv.Engine()
	if bm := eng.Binary(); bm != nil && bm.Frozen() {
		return nil, fmt.Errorf("trainer: serving engine is a frozen binary snapshot with no float class memory to train " +
			"(serve the float checkpoint with the binary backend instead)")
	}
	m := eng.Model()
	if m == nil {
		return nil, fmt.Errorf("trainer: serving engine has no model")
	}
	cfg = cfg.withDefaults()
	switch strings.ToLower(cfg.Backend) {
	case "float", "binary", "packed-binary":
	default:
		return nil, fmt.Errorf("trainer: unknown backend %q (want float or binary)", cfg.Backend)
	}
	switch strings.ToLower(cfg.Mode) {
	case "full", "alphas":
	default:
		return nil, fmt.Errorf("trainer: unknown retrain mode %q (want full or alphas)", cfg.Mode)
	}
	return &Trainer{
		cfg:   cfg,
		srv:   srv,
		buf:   NewBuffer(cfg.BufferCap, m.Cfg.Classes, cfg.Seed),
		model: m,
	}, nil
}

// Config returns the resolved configuration.
func (t *Trainer) Config() Config { return t.cfg }

// Buffer returns the underlying sample buffer (status and tests).
func (t *Trainer) Buffer() *Buffer { return t.buf }

// Model returns the model the trainer currently maintains — the one
// behind the serving engine, replaced on every successful Retrain.
func (t *Trainer) Model() *boosthd.Model {
	t.modelMu.RLock()
	defer t.modelMu.RUnlock()
	return t.model
}

// Observe ingests one labeled sample: it is buffered for future
// retrains and, unless disabled, applied to the live model as an
// incremental OnlineHD step under the learners' write locks. Validation
// failures wrap serve.ErrBadInput so the HTTP layer answers 400.
func (t *Trainer) Observe(x []float64, label int) error {
	m := t.Model()
	if err := checkSample(m, x, label); err != nil {
		return err
	}
	return t.ingest(m, x, label)
}

// checkSample validates one labeled sample against m: the label in
// range, the row admitted by m.CheckRow. Failures wrap serve.ErrBadInput.
func checkSample(m *boosthd.Model, x []float64, label int) error {
	if label < 0 || label >= m.Cfg.Classes {
		return fmt.Errorf("%w: label %d outside [0,%d)", serve.ErrBadInput, label, m.Cfg.Classes)
	}
	if err := m.CheckRow(x); err != nil {
		return fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	return nil
}

// checkBatch validates a labeled batch against m before any row of it
// is used (see checkSample).
func checkBatch(m *boosthd.Model, X [][]float64, y []int) error {
	if len(X) != len(y) {
		return fmt.Errorf("%w: %d rows with %d labels", serve.ErrBadInput, len(X), len(y))
	}
	for i := range X {
		if err := checkSample(m, X[i], y[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// ingest buffers one pre-validated sample and applies the incremental
// model update.
func (t *Trainer) ingest(m *boosthd.Model, x []float64, label int) error {
	t.buf.Add(x, label)
	t.observed.Add(1)
	if !t.cfg.DisableOnlineUpdate {
		changed, err := m.Update(x, label)
		if err != nil {
			return fmt.Errorf("trainer: %w", err)
		}
		if len(changed) > 0 {
			t.updated.Add(1)
			t.notifyMutation(changed)
		}
	}
	return nil
}

// ObserveBatch ingests a labeled batch all-or-nothing: every row's
// width and label are validated before any sample is buffered or
// applied to the live model, so a rejected batch leaves the stream
// state untouched and the client can retry it wholesale without
// double-ingesting the prefix.
func (t *Trainer) ObserveBatch(X [][]float64, y []int) error {
	m := t.Model()
	if err := checkBatch(m, X, y); err != nil {
		return err
	}
	for i := range X {
		t.buf.Add(X[i], y[i])
	}
	t.observed.Add(uint64(len(X)))
	if !t.cfg.DisableOnlineUpdate {
		// One blocked batch-encode pass instead of a scalar projection
		// sweep per row; updates land in row order under the same
		// per-learner locks.
		changedRows, changed, err := m.UpdateBatch(X, y)
		if err != nil {
			// Rows already applied before the failure still moved
			// learners; announce them so a strict monitor does not read
			// the partial batch as corruption.
			t.notifyMutation(changed)
			return fmt.Errorf("trainer: %w", err)
		}
		t.updated.Add(uint64(changedRows))
		t.notifyMutation(changed)
	}
	return nil
}

// Adopt installs eng as the serving engine and re-points the trainer at
// the model behind it, atomically with respect to retrains — the HTTP
// /swap path goes through it so an operator-installed checkpoint is
// tracked by subsequent observes and retrains instead of being silently
// reverted by the next retrain of the stale model. The engine must
// carry a trainable float model with the same input width and class
// count as the stream the buffer holds.
func (t *Trainer) Adopt(eng *infer.Engine) error {
	if eng == nil {
		return fmt.Errorf("trainer: adopt: nil engine")
	}
	if bm := eng.Binary(); bm != nil && bm.Frozen() {
		return fmt.Errorf("%w: cannot adopt a frozen binary snapshot (no float class memory to train)", serve.ErrBadInput)
	}
	m := eng.Model()
	if m == nil {
		return fmt.Errorf("trainer: adopt: engine has no model")
	}
	cur := t.Model()
	if m.InputDim() != cur.InputDim() || m.Cfg.Classes != cur.Cfg.Classes {
		return fmt.Errorf("%w: adopted model is %d features x %d classes, trainer stream is %d x %d",
			serve.ErrBadInput, m.InputDim(), m.Cfg.Classes, cur.InputDim(), cur.Cfg.Classes)
	}
	t.retrainMu.Lock()
	defer t.retrainMu.Unlock()
	if err := t.srv.Swap(eng); err != nil {
		return fmt.Errorf("trainer: adopt: %w", err)
	}
	t.modelMu.Lock()
	t.model = m
	t.modelMu.Unlock()
	return nil
}

// Retrain refits a replacement ensemble over the buffered samples and
// hot-swaps it into the server: the current model is cloned, the clone
// is refitted through the same SAMME boosting core that trained it
// (learners and alphas both recomputed, encoders preserved), the
// configured backend engine is built — including quantization for the
// binary backend — and only then installed through the server's atomic
// swap. Every expensive step runs off the serving path; in-flight
// batches finish on the old engine. A buffer below MinRetrain or with
// fewer than two classes reports Swapped=false without error; errors
// are also counted in Status (RetrainFailures, LastError) so a
// persistently failing background loop is visible from /healthz.
func (t *Trainer) Retrain() (serve.RetrainReport, error) {
	// TryLock, not Lock: a refit runs for minutes at paper scale, and
	// callers queueing behind it (each then running its own serial
	// refit) would pile up deadline-free HTTP connections. A concurrent
	// retrain is answered as busy instead.
	if !t.retrainMu.TryLock() {
		return serve.RetrainReport{Reason: "another retrain is in flight"}, serve.ErrBusy
	}
	defer t.retrainMu.Unlock()
	start := time.Now()
	X, y := t.buf.Snapshot()
	report := serve.RetrainReport{Samples: len(X), Backend: t.cfg.Backend, Mode: t.cfg.Mode}
	if len(X) < t.cfg.MinRetrain {
		report.Reason = fmt.Sprintf("need >= %d buffered samples, have %d", t.cfg.MinRetrain, len(X))
		report.TookMS = time.Since(start).Seconds() * 1e3
		return report, nil
	}
	if classesPresent(y) < 2 {
		report.Reason = "buffer holds fewer than 2 classes"
		report.TookMS = time.Since(start).Seconds() * 1e3
		return report, nil
	}
	var fresh *boosthd.Model
	var err error
	if strings.ToLower(t.cfg.Mode) == "alphas" {
		// Keep the class memories — the incremental online updates
		// already moved them with the stream — and only re-score each
		// learner's importance over current data. The view SHARES the
		// live learners (all access stays lock-mediated), so updates
		// streaming in during and after the reweight are never lost to
		// the swap; only the alpha vector is private to the view.
		if fresh, err = t.Model().View(boosthd.View{}); err == nil {
			err = fresh.ReweightAlphas(X, y)
		}
	} else {
		// A full refit works on a deep clone; samples observed while it
		// runs keep landing in the old model and the buffer, and their
		// effect is recovered at the next refit from the buffer.
		fresh = t.Model().Clone()
		err = fresh.Refit(X, y)
	}
	if err != nil {
		return report, t.recordFailure(fmt.Errorf("trainer: refit: %w", err))
	}
	eng, err := t.buildEngine(fresh)
	if err != nil {
		return report, t.recordFailure(fmt.Errorf("trainer: %w", err))
	}
	if err := t.srv.Swap(eng); err != nil {
		return report, t.recordFailure(fmt.Errorf("trainer: swap: %w", err))
	}
	t.modelMu.Lock()
	t.model = fresh
	t.modelMu.Unlock()
	t.retrains.Add(1)
	// A successful swap clears the sticky error: health checks keyed on
	// last_error must stop paging once the trainer has recovered.
	t.lastErrMu.Lock()
	t.lastErr = ""
	t.lastErrMu.Unlock()
	report.Swapped = true
	report.TookMS = time.Since(start).Seconds() * 1e3
	// Base republish: every tenant view rebuilds over the fresh model on
	// its next resolve. Journaled after the swap that published it.
	if o := t.srv.Obs(); o != nil {
		o.Journal.Append(obs.Event{Type: obs.EvRetrain,
			Corr:    o.Journal.NewCorr(),
			Version: t.srv.ModelVersion(),
			Detail:  fmt.Sprintf("mode=%s backend=%s samples=%d", report.Mode, report.Backend, report.Samples)})
	}
	return report, nil
}

// recordFailure counts a retrain error and keeps it for Status.
func (t *Trainer) recordFailure(err error) error {
	t.failures.Add(1)
	t.lastErrMu.Lock()
	t.lastErr = err.Error()
	t.lastErrMu.Unlock()
	return err
}

// buildEngine wraps a refitted model in the configured serving backend.
func (t *Trainer) buildEngine(m *boosthd.Model) (*infer.Engine, error) {
	switch strings.ToLower(t.cfg.Backend) {
	case "binary", "packed-binary":
		return infer.NewBinaryEngine(m)
	default:
		return infer.NewEngine(m), nil
	}
}

// classesPresent counts distinct labels in y.
func classesPresent(y []int) int {
	seen := map[int]bool{}
	for _, l := range y {
		seen[l] = true
	}
	return len(seen)
}

// Status snapshots the trainer counters.
func (t *Trainer) Status() serve.TrainerStatus {
	t.lastErrMu.Lock()
	lastErr := t.lastErr
	t.lastErrMu.Unlock()
	return serve.TrainerStatus{
		Observed:        t.observed.Load(),
		Updated:         t.updated.Load(),
		Buffered:        t.buf.Len(),
		Retrains:        t.retrains.Load(),
		RetrainFailures: t.failures.Load(),
		LastError:       lastErr,
	}
}

// Start launches the background retrain loop (no-op when RetrainEvery
// is zero or a loop is already running). Each tick runs one Retrain;
// skipped retrains (buffer too small) are silent, and a failed refit
// leaves the serving model untouched for the next tick — failures are
// counted into Status (RetrainFailures, LastError), so /healthz shows
// a loop that is erroring instead of adapting.
func (t *Trainer) Start() {
	if t.cfg.RetrainEvery <= 0 {
		return
	}
	t.loopMu.Lock()
	defer t.loopMu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go t.loop(t.stop, t.done)
}

func (t *Trainer) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(t.cfg.RetrainEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			_, _ = t.Retrain()
		}
	}
}

// Stop halts the background loop and waits for an in-flight retrain
// tick to finish. Safe to call without Start and more than once.
func (t *Trainer) Stop() { t.StopWait(0) }

// StopWait halts the background loop, waiting at most `grace` for an
// in-flight retrain tick to finish (zero or negative waits forever).
// It reports whether the loop actually exited — false means a refit is
// still running past the bound, which a shutdown path should log
// rather than hang on: a paper-scale refit can take minutes, far past
// any orchestrator's kill window. Safe without Start and repeatedly:
// after a timed-out StopWait the loop is still tracked, so later calls
// keep reporting false until it has really exited.
func (t *Trainer) StopWait(grace time.Duration) bool {
	t.loopMu.Lock()
	stop, done := t.stop, t.done
	if stop == nil {
		t.loopMu.Unlock()
		return true
	}
	if !t.stopping {
		close(stop)
		t.stopping = true
	}
	t.loopMu.Unlock()

	exited := false
	if grace <= 0 {
		<-done
		exited = true
	} else {
		select {
		case <-done:
			exited = true
		case <-time.After(grace):
		}
	}
	if exited {
		t.loopMu.Lock()
		if t.done == done {
			t.stop, t.done, t.stopping = nil, nil, false
		}
		t.loopMu.Unlock()
	}
	return exited
}
