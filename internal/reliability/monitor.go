// Package reliability is the runtime integrity subsystem for serving
// BoostHD models: it turns the paper's offline robustness claim — the
// boosted ensemble tolerates memory bit-flips — into a live serving
// guarantee. A Monitor watches the model memory behind a serve.Server
// through three mechanisms layered from cheap to semantic:
//
//  1. Detection. Every weak learner's memory is signed per dimension
//     segment: XOR-fold parity words plus position-mixed digests over
//     fixed-size blocks of the packed-binary sign and mask planes, and
//     the same fold over the aligned blocks of the float class
//     hypervectors. A background scrubber re-walks the memory on a
//     period and compares — a mismatch names the corrupted word range,
//     not just the learner. A small held-out canary set additionally
//     scores each learner solo, catching accuracy collapse a memory
//     checksum cannot attribute (e.g. corruption that predates
//     quantization, or drift).
//
//  2. Response, at two tiers. Corruption attributed to specific
//     segments quarantines only those dimension words: both scoring
//     backends honor per-learner dimension masks (the packed-binary
//     path ANDs the mask into the confidence masks and renormalizes by
//     the surviving popcount; the float path zeroes the masked class
//     components with matching norms), so the learner keeps voting from
//     its thousands of healthy dimensions. Full-learner alpha masking
//     remains the fallback — taken when the healthy fraction drops
//     below the criticality threshold, when the canary-measured impact
//     of the masked segments exceeds the quarantine drop, or when the
//     damage cannot be attributed at all. Every mask change installs
//     through the server's atomic compare-and-swap, so requests never
//     see a torn model.
//
//  3. Repair, surgically. Corrupted planes re-threshold from the intact
//     float memory per learner; corrupted float segments restore only
//     those dimension ranges from the last verified checkpoint; a fully
//     condemned learner restores wholesale; with a trainer attached, a
//     hot retrain rebuilds everything. Repaired memory is re-signed,
//     canary-verified, and un-masked.
//
// With live training attached, the trainer hands the monitor a fresh
// signature after every update it applies (NoteMutation), so strict
// integrity scrubbing keeps running: a version bump without a matching
// handed signature is corruption, not trust-on-sight.
package reliability

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"boosthd/internal/boosthd"
	"boosthd/internal/infer"
	"boosthd/internal/obs"
	"boosthd/internal/serve"
)

// Config tunes a Monitor.
type Config struct {
	// ScrubEvery is the background scrub (and auto-repair) period; zero
	// means no background loop — Scrub/Repair are driven manually.
	ScrubEvery time.Duration
	// QuarantineDrop is the absolute canary-accuracy drop below a
	// learner's signed baseline that quarantines it — and the
	// criticality budget for dimension masking: a learner whose masked
	// segments carry more canary-measured impact than this is fully
	// alpha-masked instead. Zero selects the 0.15 default — exact-zero
	// tolerance is not expressible (and would quarantine on ordinary
	// canary noise; use a small positive value).
	QuarantineDrop float64
	// SegmentWords is the signature segment width in packed 64-bit
	// words (64 dimensions each): corruption is attributed and masked
	// at this granularity. Zero selects DefaultSegmentWords (8, i.e.
	// 512 dimensions); smaller segments attribute more surgically at
	// 2/SegmentWords words of signature storage overhead.
	SegmentWords int
	// MinHealthyFraction is the dimension-quarantine floor: a learner
	// whose healthy-dimension fraction would drop below it is fully
	// alpha-masked instead of dimension-masked (too little trusted
	// memory left to vote meaningfully). Zero selects the 0.5 default;
	// >= 1 forces learner-granular quarantine for every fault — the
	// PR-4 behavior, kept for A/B comparison.
	MinHealthyFraction float64
	// CheckpointPath names the last verified checkpoint OF THE SERVING
	// MODEL (a float ensemble written by Model.Save): the repair source
	// for corrupted float class memory, and — for a frozen binary
	// snapshot, which has no float memory at all — the full-reload
	// source. Empty disables checkpoint repair. If the serving engine
	// later changes hands (operator swap, trainer retrain), the
	// checkpoint no longer describes the serving model and checkpoint
	// repair disarms automatically; re-arm with SetCheckpoint.
	CheckpointPath string
	// Trainer, when set, is the fallback repair source: a corrupted
	// learner with no checkpoint to restore from triggers a targeted
	// refit through the trainer's existing hot-retrain path.
	Trainer serve.Trainer
	// SignedUpdates expects every legitimate class-memory mutation to
	// be announced through NoteMutation with a fresh signature (the
	// trainer→monitor contract): a version counter that advanced
	// without a matching handed signature gets one scrub pass of grace
	// for the in-flight handoff, then is treated as corruption. This
	// keeps integrity scrubbing strict under live training, where
	// TrustVersioned would wave every mutation through.
	SignedUpdates bool
	// StatePath, when set, persists the health ledger — per-learner fault
	// counters, canary baselines, and segment-criticality baselines —
	// after every scrub and repair pass, so a restart resumes the fault
	// history instead of starting blind. Restore it with LoadState (after
	// SetCanary, so the persisted baselines win over freshly recomputed
	// ones). Writes are atomic; a failed write is recorded in Status's
	// LastError rather than failing the pass.
	StatePath string
	// Journal, when set, receives a typed event for every non-clean
	// scrub verdict, quarantine/mask change, repair attempt, and
	// baseline adoption, each pass grouped under one correlation ID.
	// Nil disables journaling at the cost of a nil check per event.
	Journal *obs.Journal
	// TrustVersioned treats a learner whose version counter advanced
	// since signing as legitimately mutated (streaming online updates,
	// in-place fits): it is re-signed instead of flagged. Prefer
	// SignedUpdates when the mutator can hand signatures; leave both
	// false for a static serving model, where any mutation is
	// corruption — fault injection through the locked paths bumps
	// versions too, and strict mode catches it. The canary check
	// guards all modes.
	TrustVersioned bool
}

func (c Config) withDefaults() Config {
	if c.QuarantineDrop == 0 {
		c.QuarantineDrop = 0.15
	}
	if c.SegmentWords <= 0 {
		c.SegmentWords = DefaultSegmentWords
	}
	if c.MinHealthyFraction == 0 {
		c.MinHealthyFraction = 0.5
	}
	return c
}

// maxPending bounds the per-learner queue of trainer-handed signatures
// awaiting reconciliation by the next scrub.
const maxPending = 16

// entry is one learner's row in the health ledger.
type entry struct {
	sig learnerSig // reference signature; masked segments keep pre-corruption values (the repair target)
	// pending holds trainer-handed signatures (NoteMutation) not yet
	// reconciled by a scrub; suspect is a version seen moved without a
	// matching handoff, granted one pass of grace under SignedUpdates.
	pending []learnerSig
	suspect uint64

	dims int

	// Dimension-quarantine state, all indexed by signature segment:
	// maskedSeg marks segments currently masked out of the serving
	// views; floatBad/planeBad record which representation the scrub
	// attributed the corruption to (they drive the surgical repair).
	maskedSeg []bool
	floatBad  []bool
	planeBad  []bool
	// crit is the canary-measured accuracy impact of masking each
	// segment solo, taken at baseline time — the criticality ranking
	// behind the dimension-vs-learner quarantine decision.
	crit    []float64
	hasCrit bool

	quarantined bool
	// canarySuspect marks a quarantine the canary contributed to: the
	// learner's memory cannot be trusted even where its signatures
	// agree, so repair must restore it from an external source rather
	// than re-threshold in place.
	canarySuspect bool

	integrityFaults uint64
	canaryFaults    uint64
	repairs         uint64

	baseline  float64 // solo canary accuracy at signing
	last      float64 // most recent solo canary accuracy
	hasCanary bool
}

// hasDimMask reports whether any segment is currently masked.
func (e *entry) hasDimMask() bool {
	for _, bad := range e.maskedSeg {
		if bad {
			return true
		}
	}
	return false
}

// maskedDims returns the number of local dimensions currently masked.
func (e *entry) maskedDims(segWords int) int {
	masked := 0
	for s, bad := range e.maskedSeg {
		if bad {
			lo, hi := segDimRange(e.dims, segWords, s)
			masked += hi - lo
		}
	}
	return masked
}

// maskedWords returns the number of packed 64-bit words masked out.
func (e *entry) maskedWords(segWords int) int {
	words := (e.dims + 63) / 64
	masked := 0
	for s, bad := range e.maskedSeg {
		if bad {
			lo := s * segWords
			hi := lo + segWords
			if hi > words {
				hi = words
			}
			masked += hi - lo
		}
	}
	return masked
}

// healthyFraction returns the fraction of local dimensions still
// trusted.
func (e *entry) healthyFraction(segWords int) float64 {
	return 1 - float64(e.maskedDims(segWords))/float64(e.dims)
}

// healthyMask builds the packed healthy-dimension mask the serving
// views consume, or nil when nothing is masked.
func (e *entry) healthyMask(segWords int) []uint64 {
	if !e.hasDimMask() {
		return nil
	}
	var masked []int
	for s, bad := range e.maskedSeg {
		if bad {
			masked = append(masked, s)
		}
	}
	return segMask(e.dims, segWords, masked)
}

// critImpact sums the canary-measured impact of the currently masked
// segments — the criticality the escalation decision ranks against
// QuarantineDrop.
func (e *entry) critImpact() float64 {
	if !e.hasCrit {
		return 0
	}
	sum := 0.0
	for s, bad := range e.maskedSeg {
		if bad && s < len(e.crit) {
			sum += e.crit[s]
		}
	}
	return sum
}

// adoptPending reconciles a moved version against the trainer-handed
// signatures: when one matches cur exactly (version and content), the
// reference's float half adopts it and consumed handoffs are dropped.
func (e *entry) adoptPending(cur *learnerSig) bool {
	matched := false
	for _, p := range e.pending {
		if p.version == cur.version && p.floatEqual(cur) {
			matched = true
			break
		}
	}
	if !matched {
		return false
	}
	e.sig.version = cur.version
	e.sig.hasFloat = cur.hasFloat
	e.sig.classSegs = cur.classSegs
	kept := e.pending[:0]
	for _, p := range e.pending {
		if p.version > cur.version {
			kept = append(kept, p)
		}
	}
	e.pending = kept
	e.suspect = 0
	return true
}

// hasMatchingPending reports (without consuming anything) whether a
// queued handoff matches cur exactly — the read-only form of
// adoptPending, used by Repair to decide whether a version that moved
// since the scrub was announced.
func (e *entry) hasMatchingPending(cur *learnerSig) bool {
	for _, p := range e.pending {
		if p.version == cur.version && p.floatEqual(cur) {
			return true
		}
	}
	return false
}

// pendingNewerThan reports whether a handed signature strictly newer
// than version is queued — the scan raced a burst of announced updates
// and the next pass reconciles against the newer handoff. A pending
// entry AT version with different content deliberately does not count:
// that means the memory changed after its handoff signed it, which the
// grace-then-corrupt path must judge.
func (e *entry) pendingNewerThan(version uint64) bool {
	for _, p := range e.pending {
		if p.version > version {
			return true
		}
	}
	return false
}

// ScrubReport describes one scrub pass.
type ScrubReport struct {
	// Adopted is true when the serving engine changed hands since the
	// last pass (operator swap, trainer retrain): the monitor re-signed
	// the new model instead of scrubbing signatures it no longer holds.
	Adopted bool `json:"adopted,omitempty"`
	// IntegrityFaults and CanaryFaults list learners flagged this pass.
	IntegrityFaults []int `json:"integrity_faults,omitempty"`
	CanaryFaults    []int `json:"canary_faults,omitempty"`
	// Quarantined lists learners newly alpha-masked wholesale this
	// pass; DimMasked lists learners whose dimension masks grew instead
	// (still voting from their healthy dimensions).
	Quarantined []int `json:"quarantined,omitempty"`
	DimMasked   []int `json:"dim_masked,omitempty"`
	// MaskedWords is the total packed words currently masked across the
	// ensemble after this pass.
	MaskedWords int `json:"masked_words,omitempty"`
	// Swapped is true when a quarantine mask changed and a rebuilt
	// engine was installed.
	Swapped bool    `json:"swapped,omitempty"`
	TookMS  float64 `json:"took_ms"`
}

// RepairReport describes one repair pass.
type RepairReport struct {
	Repaired []int `json:"repaired,omitempty"`
	Failed   []int `json:"failed,omitempty"`
	// Segments counts dimension segments restored surgically (as
	// opposed to whole-learner restores).
	Segments int     `json:"segments,omitempty"`
	Source   string  `json:"source,omitempty"` // rethreshold, checkpoint, trainer
	Swapped  bool    `json:"swapped,omitempty"`
	Reason   string  `json:"reason,omitempty"` // why nothing was repaired
	TookMS   float64 `json:"took_ms"`
}

// Monitor owns the reliability loop for one serve.Server. All methods
// are safe for concurrent use. Two locks split responsiveness from
// serialization: passMu serializes whole Scrub/Repair passes (so the
// background loop and manual calls never interleave), while mu guards
// the monitor state and is RELEASED around the slow repair steps
// (checkpoint load, trainer retrain) — /healthz and /reliability keep
// answering while the monitor is mid-heal.
type Monitor struct {
	cfg Config
	srv *serve.Server

	passMu sync.Mutex // serializes Scrub/Repair passes end to end

	mu          sync.Mutex
	cur         *infer.Engine  // engine the monitor installed or signed last
	base        *boosthd.Model // model carrying the true (unmasked) alphas
	ledger      []*entry
	masked      []bool
	canaryX     [][]float64
	canaryY     []int
	lastScrubMS float64
	lastErr     string
	// autoStuck marks a repair attempt that restored nothing while
	// something stayed quarantined: the background loop stops retrying
	// (each retry would redo the full re-threshold + canary pass and
	// inflate the failure counters) until a scrub changes the picture —
	// a new quarantine, an adoption, or a manual Repair.
	autoStuck bool
	// ckptArmed is true while CheckpointPath still describes the model
	// behind the serving engine. Adopting a foreign engine (operator
	// swap, trainer retrain) disarms it: restoring learners from a
	// checkpoint of a DIFFERENT model would graft stale weights into
	// the new one and re-sign the chimera as healthy.
	ckptArmed bool
	// passCorr is the journal correlation ID of the Scrub/Repair pass
	// currently holding passMu; every event the pass appends shares it.
	passCorr uint64

	scrubs      atomic.Uint64
	detections  atomic.Uint64
	quarantines atomic.Uint64
	repairs     atomic.Uint64
	repairFails atomic.Uint64

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// New builds a Monitor over the model behind srv's current serving
// engine and signs it immediately: the engine installed at construction
// is the trusted baseline. When CheckpointPath is set, the checkpoint is
// opened once up front so a missing or unreadable repair source fails at
// configuration time, not mid-incident.
func New(srv *serve.Server, cfg Config) (*Monitor, error) {
	if srv == nil {
		return nil, fmt.Errorf("reliability: nil server")
	}
	cfg = cfg.withDefaults()
	if cfg.QuarantineDrop < 0 || cfg.QuarantineDrop > 1 {
		return nil, fmt.Errorf("reliability: quarantine drop %v outside [0,1]", cfg.QuarantineDrop)
	}
	if cfg.MinHealthyFraction < 0 {
		return nil, fmt.Errorf("reliability: min healthy fraction %v negative", cfg.MinHealthyFraction)
	}
	if cfg.CheckpointPath != "" {
		if err := validateCheckpoint(srv.Engine(), cfg.CheckpointPath); err != nil {
			return nil, fmt.Errorf("reliability: repair checkpoint: %w", err)
		}
	}
	mo := &Monitor{cfg: cfg, srv: srv, ckptArmed: cfg.CheckpointPath != ""}
	// adoptLocked (and the baseline path under it) runs with mo.mu held
	// everywhere else; hold it here too so its internal unlock/relock
	// around heavy reads stays uniform.
	mo.mu.Lock()
	mo.adoptLocked(srv.Engine())
	mo.mu.Unlock()
	return mo, nil
}

// Config returns the resolved configuration.
func (mo *Monitor) Config() Config {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.cfg
}

// SetCheckpoint re-arms checkpoint repair with a checkpoint of the
// CURRENT serving model — the call an operator makes after swapping in
// a new checkpoint, so the monitor can restore from it again. The file
// is validated (loadable; geometry-compatible for a non-frozen model)
// before anything changes.
func (mo *Monitor) SetCheckpoint(path string) error {
	if path == "" {
		return fmt.Errorf("reliability: empty checkpoint path")
	}
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.mu.Lock()
	cur := mo.cur
	mo.mu.Unlock()
	if err := validateCheckpoint(cur, path); err != nil {
		return fmt.Errorf("reliability: repair checkpoint: %w", err)
	}
	mo.mu.Lock()
	mo.cfg.CheckpointPath = path
	mo.ckptArmed = true
	mo.mu.Unlock()
	return nil
}

// validateCheckpoint verifies path is a usable repair source for the
// serving engine: loadable, and geometry-compatible with the model
// behind cur. For a frozen snapshot — whose repair unit is a wholesale
// engine reload — the comparison runs against the reloaded engine's
// model shell, so a checkpoint of a different model cannot be swapped
// into a serving contract it does not satisfy.
func validateCheckpoint(cur *infer.Engine, path string) error {
	if bin := cur.Binary(); bin != nil && bin.Frozen() {
		eng, err := serve.LoadEngine(path, "binary")
		if err != nil {
			return err
		}
		return compatible(cur.Model(), eng.Model())
	}
	m, err := loadCheckpointModel(path)
	if err != nil {
		return err
	}
	return compatible(cur.Model(), m)
}

// SetCanary installs a held-out labeled canary set, records each
// learner's solo accuracy on it as its health baseline, and measures
// each dimension segment's criticality (the accuracy each learner loses
// when that segment alone is masked). The rows are deep-copied — the
// canary is the reference the scrubber trusts, so no caller alias may
// reach it afterwards.
func (mo *Monitor) SetCanary(X [][]float64, y []int) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("reliability: bad canary set (%d rows, %d labels)", len(X), len(y))
	}
	// passMu keeps the install out of a running pass: Scrub and Repair
	// read the canary slices with the state lock released.
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.mu.Lock()
	defer mo.mu.Unlock()
	want := mo.base.InputDim()
	classes := mo.base.Cfg.Classes
	cx := make([][]float64, len(X))
	cy := make([]int, len(y))
	for i, row := range X {
		if len(row) != want {
			return fmt.Errorf("reliability: canary row %d has %d features, model expects %d", i, len(row), want)
		}
		if y[i] < 0 || y[i] >= classes {
			return fmt.Errorf("reliability: canary label %d at row %d outside [0,%d)", y[i], i, classes)
		}
		cx[i] = append([]float64(nil), row...)
		cy[i] = y[i]
	}
	mo.canaryX, mo.canaryY = cx, cy
	return mo.baselineCanaryLocked()
}

// baselineCanaryLocked scores every learner on the canary set, records
// the accuracies as baselines, and ranks segment criticality: for each
// segment index, an engine view with exactly that segment masked in
// every learner scores the canary, and the per-learner accuracy drop
// becomes that segment's measured impact. The scrub's dimension-vs-
// learner quarantine decision sums these impacts over a learner's
// masked segments and escalates past QuarantineDrop.
//
// Called with mo.mu held; the canary sweeps (one per segment — the
// heaviest reads the monitor ever does) run with the lock RELEASED so
// Status and NoteMutation keep answering, exactly like Scrub's heavy
// reads. passMu in every caller's stack keeps the captured state
// stable for the duration.
func (mo *Monitor) baselineCanaryLocked() error {
	if len(mo.canaryX) == 0 {
		return nil
	}
	cur, base := mo.cur, mo.base
	canaryX, canaryY := mo.canaryX, mo.canaryY
	segWords := mo.cfg.SegmentWords
	dims := make([]int, len(mo.ledger))
	for i, e := range mo.ledger {
		dims[i] = e.dims
	}
	maxSegs := 0
	for _, d := range dims {
		if n := segsFor(d, segWords); n > maxSegs {
			maxSegs = n
		}
	}

	mo.mu.Unlock()
	acc, err := cur.EvaluateLearners(canaryX, canaryY)
	var crit [][]float64
	if err == nil && maxSegs > 1 {
		crit = make([][]float64, maxSegs)
		for s := 0; s < maxSegs && err == nil; s++ {
			healthy := make([][]uint64, len(dims))
			any := false
			for i, d := range dims {
				if s >= segsFor(d, segWords) {
					continue
				}
				healthy[i] = segMask(d, segWords, []int{s})
				any = true
			}
			if !any {
				continue
			}
			var eng *infer.Engine
			eng, err = infer.View(cur, base, boosthd.View{Healthy: healthy})
			if err == nil {
				crit[s], err = eng.EvaluateLearners(canaryX, canaryY)
			}
		}
	}
	mo.mu.Lock()
	if err != nil {
		return fmt.Errorf("reliability: canary baseline: %w", err)
	}
	for i, e := range mo.ledger {
		e.baseline, e.last, e.hasCanary = acc[i], acc[i], true
		if maxSegs <= 1 {
			// One segment per learner: masking it is masking the
			// learner; the criticality ranking degenerates to the
			// canary drop itself.
			if len(e.crit) == 1 {
				e.crit[0] = e.baseline
			}
		} else {
			for s := range e.crit {
				if s >= len(crit) || crit[s] == nil {
					continue
				}
				d := e.baseline - crit[s][i]
				if d < 0 {
					d = 0
				}
				e.crit[s] = d
			}
		}
		e.hasCrit = true
	}
	return nil
}

// adoptLocked re-points the monitor at eng: fresh ledger, empty
// quarantine masks, signatures taken from the memory behind it, canary
// baselines recomputed when a canary set is installed. The engine is
// presumed verified — adoption is for engines installed by trusted
// actors (construction, operator swap, trainer retrain, repair).
func (mo *Monitor) adoptLocked(eng *infer.Engine) {
	mo.cur = eng
	mo.base = eng.Model()
	sigs := signModel(mo.base, eng.Binary(), mo.cfg.SegmentWords)
	mo.ledger = make([]*entry, len(sigs))
	for i := range sigs {
		segs := sigs[i].segs()
		mo.ledger[i] = &entry{
			sig:       sigs[i],
			dims:      sigs[i].dims,
			maskedSeg: make([]bool, segs),
			floatBad:  make([]bool, segs),
			planeBad:  make([]bool, segs),
			crit:      make([]float64, segs),
		}
	}
	mo.masked = make([]bool, len(sigs))
	if len(mo.canaryX) > 0 {
		if err := mo.baselineCanaryLocked(); err != nil {
			// The adopted model cannot score the canary (for example a
			// different feature width): drop the canary rather than
			// flag every learner against a baseline that no longer
			// applies, and surface the reason in Status.
			mo.canaryX, mo.canaryY = nil, nil
			for _, e := range mo.ledger {
				e.hasCanary = false
			}
			mo.lastErr = err.Error()
		}
	}
}

// NoteMutation is the trainer→monitor integrity handoff: called right
// after a locked streaming update moved the listed learners' class
// memories, it re-signs exactly those learners and queues the
// signatures as announced mutations. Under SignedUpdates the next scrub
// trusts a moved version only if it matches a handed signature — so
// live training stays compatible with strict corruption detection at
// per-learner, per-update granularity instead of TrustVersioned's
// wholesale waiver.
func (mo *Monitor) NoteMutation(learners []int) {
	if len(learners) == 0 {
		return
	}
	// Signing walks each learner's full class memory: do it with only
	// the learner's own read lock held, not mo.mu — this runs on the
	// trainer's observe path, which must not serialize behind Status or
	// a scrub reconciliation.
	mo.mu.Lock()
	base := mo.base
	count := len(mo.ledger)
	segWords := mo.cfg.SegmentWords
	mo.mu.Unlock()
	idx := make([]int, 0, len(learners))
	sigs := make([]learnerSig, 0, len(learners))
	for _, i := range learners {
		if i < 0 || i >= count || i >= len(base.Learners) {
			continue
		}
		idx = append(idx, i)
		sigs = append(sigs, signFloatLearner(base.Learners[i], segWords))
	}
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.base != base {
		// The monitor adopted a different model while we signed; these
		// handoffs describe memory it no longer scrubs.
		return
	}
	for k, i := range idx {
		if i >= len(mo.ledger) {
			continue
		}
		e := mo.ledger[i]
		e.pending = append(e.pending, sigs[k])
		if len(e.pending) > maxPending {
			e.pending = e.pending[len(e.pending)-maxPending:]
		}
	}
}

// Scrub runs one detection pass: verify every healthy learner's segment
// signatures, score the canary, mask what failed — corrupted segments
// at dimension granularity, whole learners when the damage is too broad
// (healthy fraction below MinHealthyFraction), too critical (summed
// canary impact of the masked segments past QuarantineDrop), or
// unattributable — and, when any mask changed, install a rebuilt
// two-tier-masked engine through the server's atomic swap. Fully
// quarantined learners are skipped (their memory is known bad until
// repaired); already-masked segments are skipped the same way. If the
// serving engine changed hands since the last pass, the monitor adopts
// and re-signs it instead.
func (mo *Monitor) Scrub() (ScrubReport, error) {
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.passCorr = mo.cfg.Journal.NewCorr()
	// Registered before the state lock's defer, so it runs after mu is
	// released: the durable ledger snapshot reflects this pass's verdicts.
	defer mo.persistState()
	start := time.Now()
	report := ScrubReport{}
	defer func() {
		report.TookMS = time.Since(start).Seconds() * 1e3
		mo.mu.Lock()
		mo.lastScrubMS = report.TookMS
		mo.mu.Unlock()
		mo.scrubs.Add(1)
	}()

	mo.mu.Lock()
	if eng := mo.srv.Engine(); eng != mo.cur {
		mo.adoptForeignLocked(eng)
		report.Adopted = true
		mo.mu.Unlock()
		return report, nil
	}
	cur, base := mo.cur, mo.base
	canaryX, canaryY := mo.canaryX, mo.canaryY
	segWords := mo.cfg.SegmentWords
	mo.mu.Unlock()

	// The heavy reads — full-memory signing and the canary sweep — run
	// with the state lock released, so Status (and therefore /healthz
	// and /reliability) keeps answering mid-scrub. passMu keeps other
	// passes (and SetCanary/SetCheckpoint) out, and external swaps only
	// change srv.Engine(), which the next pass adopts.
	sigs := signModel(base, cur.Binary(), segWords)
	var acc []float64
	var canaryErr error
	if len(canaryX) > 0 {
		acc, canaryErr = cur.EvaluateLearners(canaryX, canaryY)
	}

	mo.mu.Lock()
	defer mo.mu.Unlock()
	flagged := make([]bool, len(mo.ledger))    // full quarantine this pass
	dimFlagged := make([]bool, len(mo.ledger)) // dimension masks grew this pass
	for i, e := range mo.ledger {
		if e.quarantined {
			continue
		}
		cur := &sigs[i]
		ref := &e.sig
		announced := false
		deferFloat := false
		if ref.hasFloat && cur.version != ref.version {
			switch {
			case e.adoptPending(cur):
				// A trainer-handed signature matches: the mutation was
				// announced and the reference now describes it.
				announced = true
			case mo.cfg.TrustVersioned:
				ref.version = cur.version
				ref.classSegs = cur.classSegs
				e.suspect = 0
				announced = true
			case cur.version < ref.version, e.pendingNewerThan(cur.version):
				// The scan raced announced updates: the reference, or a
				// queued handoff, already describes a NEWER state than
				// we scanned. Defer the float verdict to the next pass
				// instead of burning the grace — under sustained
				// streaming this is the common case, and treating it as
				// suspect would starve verification forever (each pass
				// would see yet another version). The plane check below
				// still runs, so silent word faults are not deferred
				// with it.
				deferFloat = true
			case mo.cfg.SignedUpdates && e.suspect != cur.version:
				// One pass of grace: the update may have completed just
				// before our scan while its handoff is still in flight.
				e.suspect = cur.version
				deferFloat = true
			default:
				// Unannounced mutation: strict mode treats it as
				// corruption, but the segment diff still says WHERE —
				// the reference content predates the mutation, so the
				// changed segments are exactly the untrusted ones.
				ref.version = cur.version
			}
		} else {
			e.suspect = 0
		}

		var newFloat []int
		if !announced && !deferFloat {
			newFloat = floatBadSegs(ref, cur, e.maskedSeg)
		}
		var newPlane []int
		if ref.hasPlanes {
			if cur.planeVersion != ref.planeVersion {
				// Planes only move by re-quantization from the float
				// memory. With the float side verified (or restored to
				// announced state) above, the re-quantized planes are
				// trustworthy: adopt their signatures. With the float
				// verdict deferred, defer the plane verdict with it
				// (the planes derive from the unverified float state);
				// with float corruption in play the float segments
				// carry the response, and the surgical re-threshold at
				// repair rebuilds the planes anyway.
				switch {
				case deferFloat:
				case len(newFloat) == 0:
					ref.planeVersion = cur.planeVersion
					ref.signSegs = cur.signSegs
					ref.maskSegs = cur.maskSegs
				default:
					newPlane = newFloat
				}
			} else {
				newPlane = planeBadSegs(ref, cur, e.maskedSeg)
			}
		}
		if len(newFloat) == 0 && len(newPlane) == 0 {
			continue
		}

		e.integrityFaults++
		report.IntegrityFaults = append(report.IntegrityFaults, i)
		for _, s := range newFloat {
			e.floatBad[s] = true
			e.maskedSeg[s] = true
		}
		for _, s := range newPlane {
			e.planeBad[s] = true
			e.maskedSeg[s] = true
		}
		// Criticality-ranked tier decision: dimension masking keeps the
		// learner voting unless too little trusted memory remains or
		// the masked segments were measured too important to lose.
		if e.healthyFraction(segWords) < mo.cfg.MinHealthyFraction ||
			e.critImpact() > mo.cfg.QuarantineDrop {
			flagged[i] = true
		} else {
			dimFlagged[i] = true
		}
	}

	// A canary failure must not stop integrity-flagged learners from
	// being masked below — the error is reported after the response,
	// not instead of it.
	if canaryErr != nil {
		mo.lastErr = canaryErr.Error()
	}
	for i := 0; acc != nil && i < len(mo.ledger); i++ {
		e := mo.ledger[i]
		e.last = acc[i]
		if e.quarantined || !e.hasCanary {
			continue
		}
		// dimFlagged learners were measured BEFORE their new mask took
		// effect — the collapse the canary sees is the corruption the
		// mask just excluded. Their masked accuracy is judged next
		// pass; an already-dimension-masked learner that still scores
		// collapsed escalates to a full quarantine here.
		if dimFlagged[i] || flagged[i] {
			continue
		}
		if e.baseline-acc[i] > mo.cfg.QuarantineDrop {
			e.canaryFaults++
			// A collapse the segment signatures did NOT explain (or
			// one that survives its dimension mask): the rest of the
			// memory cannot be trusted either, so repair must restore
			// from an external source.
			e.canarySuspect = true
			flagged[i] = true
			report.CanaryFaults = append(report.CanaryFaults, i)
		}
	}

	// Never alpha-mask the entire ensemble: an all-zero-alpha model
	// answers class 0 for every request with a 200 — strictly worse
	// than serving the least-damaged learner. Dimension-masked learners
	// still vote, so they count as serving; among learners flagged for
	// FULL quarantine, keep the one with the best current canary
	// accuracy (lowest index without a canary) voting. It stays flagged
	// in the ledger and the error surfaces in Status, so the
	// total-corruption event is loud, not silent.
	healthy := 0
	for i, e := range mo.ledger {
		if !e.quarantined && !flagged[i] {
			healthy++
		}
	}
	if healthy == 0 {
		keep, best := -1, -1.0
		for i, bad := range flagged {
			if !bad {
				continue
			}
			score := -float64(i)
			if acc != nil && mo.ledger[i].hasCanary {
				score = acc[i]
			}
			if keep == -1 || score > best {
				keep, best = i, score
			}
		}
		if keep >= 0 {
			flagged[keep] = false
			mo.ledger[keep].canarySuspect = false
			if mo.ledger[keep].hasDimMask() {
				dimFlagged[keep] = true // serve it dimension-masked at least
			}
			mo.lastErr = fmt.Sprintf("all %d learners corrupted; keeping learner %d voting so the server still answers", len(mo.ledger), keep)
		}
	}

	changed := false
	for i, bad := range flagged {
		if !bad {
			continue
		}
		mo.ledger[i].quarantined = true
		mo.masked[i] = true
		mo.detections.Add(1)
		mo.quarantines.Add(1)
		report.Quarantined = append(report.Quarantined, i)
		changed = true
	}
	for i, bad := range dimFlagged {
		if !bad || flagged[i] {
			continue
		}
		mo.detections.Add(1)
		report.DimMasked = append(report.DimMasked, i)
		changed = true
	}
	// Journal the pass verdict before the mask install, so the
	// engine_swap event of a landed install orders after its cause.
	if len(report.IntegrityFaults) > 0 || len(report.CanaryFaults) > 0 {
		mo.journal(obs.Event{Type: obs.EvScrub,
			Learners: append(append([]int(nil), report.IntegrityFaults...), report.CanaryFaults...),
			Detail:   fmt.Sprintf("integrity faults %v, canary faults %v", report.IntegrityFaults, report.CanaryFaults)})
	}
	if len(report.Quarantined) > 0 {
		mo.journal(obs.Event{Type: obs.EvQuarantine, Learners: report.Quarantined,
			Detail: "alpha-masked out of the vote"})
	}
	for _, i := range report.DimMasked {
		e := mo.ledger[i]
		var segs []int
		for s, bad := range e.maskedSeg {
			if bad {
				segs = append(segs, s)
			}
		}
		mo.journal(obs.Event{Type: obs.EvDimMask, Learners: []int{i}, Segments: segs,
			Detail: fmt.Sprintf("voting from %.0f%% healthy dimensions", 100*e.healthyFraction(segWords))})
	}
	report.MaskedWords = mo.totalMaskedWordsLocked()
	if changed {
		mo.autoStuck = false // the picture changed; repair may retry
		swapped, err := mo.installMaskLocked()
		if err != nil {
			mo.lastErr = err.Error()
			return report, err
		}
		report.Swapped = swapped
	}
	if canaryErr != nil {
		return report, fmt.Errorf("reliability: canary scrub: %w", canaryErr)
	}
	return report, nil
}

// totalMaskedWordsLocked sums masked packed words across the ledger
// (dimension masks only; fully quarantined learners are counted by the
// quarantine list, not here).
func (mo *Monitor) totalMaskedWordsLocked() int {
	total := 0
	for _, e := range mo.ledger {
		if !e.quarantined {
			total += e.maskedWords(mo.cfg.SegmentWords)
		}
	}
	return total
}

// adoptForeignLocked adopts an engine installed by someone else —
// operator swap or trainer retrain. Besides the normal adoption it
// disarms checkpoint repair: the configured checkpoint described the
// previous model, and restoring its learners into the new one would
// graft stale weights (SetCheckpoint re-arms with a fresh file).
func (mo *Monitor) adoptForeignLocked(eng *infer.Engine) {
	mo.adoptLocked(eng)
	mo.autoStuck = false
	if mo.ckptArmed {
		mo.ckptArmed = false
		mo.lastErr = "serving engine changed hands; checkpoint repair disarmed until SetCheckpoint"
	}
	mo.journal(obs.Event{Type: obs.EvAdopt, Version: mo.srv.ModelVersion(),
		Detail: "serving engine changed hands; re-signed as new baseline"})
}

// healthyMasksLocked assembles the per-learner healthy-dimension masks
// the serving views consume, or nil when no learner is dimension-masked.
func (mo *Monitor) healthyMasksLocked() [][]uint64 {
	var healthy [][]uint64
	for i, e := range mo.ledger {
		if e.quarantined || !e.hasDimMask() {
			continue
		}
		if healthy == nil {
			healthy = make([][]uint64, len(mo.ledger))
		}
		healthy[i] = e.healthyMask(mo.cfg.SegmentWords)
	}
	return healthy
}

// installMaskLocked rebuilds the serving engine for the current
// two-tier quarantine masks and installs it via compare-and-swap,
// reporting whether it landed. A false return means the serving engine
// changed hands mid-pass (operator checkpoint, trainer retrain): the
// stale masked view must NOT revert that swap, so nothing is installed
// and the next scrub adopts the new engine and re-evaluates.
func (mo *Monitor) installMaskLocked() (bool, error) {
	eng, err := infer.View(mo.cur, mo.base, boosthd.View{Masked: mo.masked, Healthy: mo.healthyMasksLocked()})
	if err != nil {
		return false, fmt.Errorf("reliability: %w", err)
	}
	swapped, err := mo.srv.SwapIf(mo.cur, eng)
	if err != nil {
		return false, fmt.Errorf("reliability: %w", err)
	}
	if !swapped {
		return false, nil
	}
	mo.cur = eng
	return true, nil
}

// Repair attempts to restore every masked learner — fully quarantined
// or dimension-masked — and un-mask what verifies afterwards:
//
//   - Corrupted quantized planes re-threshold from the intact float
//     memory, surgically: only the affected learners are re-quantized
//     (source "rethreshold").
//   - Corrupted float segments restore exactly those dimension ranges
//     from the verified checkpoint through the learner's locked
//     RestoreSegments; a fully condemned learner (unattributable or
//     canary-suspect damage) restores wholesale via SetClass (source
//     "checkpoint"). Serving never sees a torn vector either way.
//   - With no checkpoint but a trainer attached, one hot retrain over
//     the trainer's buffer rebuilds the whole ensemble and the monitor
//     adopts the result (source "trainer").
//   - A frozen binary snapshot has no float memory at all: the whole
//     engine is reloaded from the checkpoint and adopted.
//
// Repaired learners are re-signed, canary-verified at their restored
// (unmasked) fidelity, and removed from both mask tiers; the rebuilt
// engine is installed through the server's atomic swap.
func (mo *Monitor) Repair() (RepairReport, error) {
	mo.passMu.Lock()
	defer mo.passMu.Unlock()
	mo.passCorr = mo.cfg.Journal.NewCorr()
	// Runs after mu's deferred unlock (LIFO), so the durable ledger
	// snapshot includes this pass's repair counts.
	defer mo.persistState()
	mo.mu.Lock()
	defer mo.mu.Unlock()
	start := time.Now()
	report := RepairReport{}
	defer func() {
		report.TookMS = time.Since(start).Seconds() * 1e3
		// A pass that restored nothing while something stayed
		// quarantined cannot succeed by repetition; park the background
		// auto-repair until the picture changes.
		mo.autoStuck = len(report.Repaired) == 0 && len(report.Failed) > 0
	}()

	var affected []int
	for i, e := range mo.ledger {
		if e.quarantined || e.hasDimMask() {
			affected = append(affected, i)
		}
	}
	if len(affected) == 0 {
		report.Reason = "nothing quarantined"
		return report, nil
	}
	segWords := mo.cfg.SegmentWords

	bin := mo.cur.Binary()
	if bin != nil && bin.Frozen() {
		return mo.repairFrozenLocked(report, affected)
	}

	// Decide per learner whether (and where) the float memory itself is
	// damaged or only the derived quantized planes are.
	sigs := signModel(mo.base, nil, segWords)
	type floatNeed struct {
		learner int
		whole   bool
		segs    []int
	}
	var needFloat []floatNeed
	for _, i := range affected {
		e := mo.ledger[i]
		if e.quarantined {
			if !sigs[i].floatEqual(&e.sig) || e.canarySuspect {
				needFloat = append(needFloat, floatNeed{learner: i, whole: true})
			}
			continue
		}
		// Segments to restore: what the scrub attributed, UNIONED with a
		// fresh-signature recheck — float corruption that landed between
		// the scrub and this repair must not be re-thresholded into the
		// planes and re-signed as healthy. A version that moved since
		// the scrub without an announced/trusted mutation behind it is
		// the same hazard with no attribution: restore the learner
		// wholesale rather than bless unexplained memory.
		if sigs[i].version != e.sig.version &&
			!mo.cfg.TrustVersioned && !e.hasMatchingPending(&sigs[i]) &&
			!e.pendingNewerThan(sigs[i].version) {
			needFloat = append(needFloat, floatNeed{learner: i, whole: true})
			continue
		}
		segBad := append([]bool(nil), e.floatBad...)
		if sigs[i].version == e.sig.version {
			for _, s := range floatBadSegs(&e.sig, &sigs[i], nil) {
				segBad[s] = true
			}
		}
		var segs []int
		for s, bad := range segBad {
			if bad {
				segs = append(segs, s)
			}
		}
		if len(segs) > 0 {
			needFloat = append(needFloat, floatNeed{learner: i, segs: segs})
		}
	}
	report.Source = "rethreshold"

	failed := map[int]bool{}
	fail := func(learners []int, err error) {
		for _, i := range learners {
			if !failed[i] {
				failed[i] = true
			}
		}
		mo.failRepair(&report, learners, err)
	}
	if len(needFloat) > 0 {
		floatLearners := make([]int, len(needFloat))
		for k, nd := range needFloat {
			floatLearners[k] = nd.learner
		}
		switch {
		case mo.cfg.CheckpointPath != "" && mo.ckptArmed:
			// The checkpoint read is disk I/O that can be slow at paper
			// scale: release the state lock so Status keeps answering.
			mo.mu.Unlock()
			ckpt, err := loadCheckpointModel(mo.cfg.CheckpointPath)
			mo.mu.Lock()
			if err == nil {
				err = compatible(mo.base, ckpt)
			}
			if err != nil {
				// A bad or missing checkpoint dooms only the learners
				// that needed it; plane-only learners still heal below.
				fail(floatLearners, err)
				break
			}
			restored := false
			for _, nd := range needFloat {
				// The checkpoint model is private to this call, so its
				// class vectors can be read directly; the restore goes
				// through the live learner's write lock either way.
				//hdlint:ignore locksafety checkpoint model is private to this call; no concurrent readers
				src := ckpt.Learners[nd.learner].Class
				var err error
				if nd.whole {
					err = mo.base.Learners[nd.learner].SetClass(src)
				} else {
					ranges := make([][2]int, len(nd.segs))
					for k, s := range nd.segs {
						lo, hi := segDimRange(mo.ledger[nd.learner].dims, segWords, s)
						ranges[k] = [2]int{lo, hi}
					}
					err = mo.base.Learners[nd.learner].RestoreSegments(src, ranges)
					if err == nil {
						report.Segments += len(nd.segs)
					}
				}
				if err != nil {
					fail([]int{nd.learner}, err)
					continue
				}
				restored = true
			}
			if restored {
				report.Source = "checkpoint"
			}
		case mo.cfg.Trainer != nil:
			return mo.repairViaTrainerLocked(report, affected)
		default:
			// Float corruption with no restore source (never
			// configured, or disarmed because the serving model no
			// longer derives from the configured checkpoint): those
			// learners stay masked; plane-only learners can still heal.
			fail(floatLearners,
				fmt.Errorf("reliability: float memory corrupted and no armed checkpoint or trainer to restore from"))
		}
	}

	if len(failed) == len(affected) {
		// Nothing left to heal this pass: skip the re-threshold,
		// re-sign, and canary sweep a doomed retry would pay.
		report.Reason = "no repair source for any quarantined learner"
		return report, nil
	}

	// Candidate state: the repaired learners' masks cleared, everything
	// else (including this pass's failures) kept. The canary verifies
	// each repaired learner at the fidelity it would serve at.
	candMasked := append([]bool(nil), mo.masked...)
	var candHealthy [][]uint64
	var remaining []int // non-failed affected learners: re-thresholded, verified, unmasked below
	for _, i := range affected {
		if failed[i] {
			if e := mo.ledger[i]; !e.quarantined && e.hasDimMask() {
				if candHealthy == nil {
					candHealthy = make([][]uint64, len(mo.ledger))
				}
				candHealthy[i] = e.healthyMask(segWords)
			}
			continue
		}
		candMasked[i] = false
		remaining = append(remaining, i)
	}

	// The verification sweep — surgical re-threshold, re-sign, canary —
	// walks model memory: run it with the state lock released (like
	// Scrub's heavy reads) so Status keeps answering. passMu keeps the
	// state this block reads stable.
	cur, base := mo.cur, mo.base
	canaryX, canaryY := mo.canaryX, mo.canaryY
	mo.mu.Unlock()
	var rethErr error
	if bin != nil {
		// Re-threshold the repaired learners' quantized memory from
		// their (now clean) float memory: heals silent plane
		// corruption, which never bumps versions and so would survive a
		// version-gated refresh. Only the learners under repair are
		// re-quantized; unrepaired learners keep their (masked) planes.
		rethErr = bin.Rethreshold(remaining...)
	}
	var fresh []learnerSig
	var canary []float64
	var canaryErr error
	if rethErr == nil {
		fresh = signModel(base, cur.Binary(), segWords)
		if len(canaryX) > 0 {
			candEng, err := infer.View(cur, base, boosthd.View{Masked: candMasked, Healthy: candHealthy})
			if err != nil {
				canaryErr = err
			} else {
				canary, canaryErr = candEng.EvaluateLearners(canaryX, canaryY)
			}
		}
	}
	mo.mu.Lock()
	if rethErr != nil {
		fail(remaining, rethErr)
		return report, rethErr
	}
	if canaryErr != nil {
		fail(remaining, canaryErr)
		return report, canaryErr
	}
	for _, i := range remaining {
		e := mo.ledger[i]
		if canary != nil {
			e.last = canary[i]
			if e.hasCanary && e.baseline-canary[i] > mo.cfg.QuarantineDrop {
				// Restored memory still scores collapsed: the damage is
				// upstream of what this pass can fix.
				report.Failed = append(report.Failed, i)
				mo.repairFails.Add(1)
				continue
			}
			e.baseline = canary[i]
		}
		e.sig = fresh[i]
		e.quarantined = false
		e.canarySuspect = false
		e.pending = nil
		e.suspect = 0
		for s := range e.maskedSeg {
			e.maskedSeg[s] = false
			e.floatBad[s] = false
			e.planeBad[s] = false
		}
		mo.masked[i] = false
		e.repairs++
		mo.repairs.Add(1)
		report.Repaired = append(report.Repaired, i)
	}
	if len(report.Repaired) > 0 {
		mo.journal(obs.Event{Type: obs.EvRepair, Learners: report.Repaired,
			Detail: fmt.Sprintf("source=%s segments=%d", report.Source, report.Segments)})
		mo.journal(obs.Event{Type: obs.EvUnmask, Learners: report.Repaired,
			Detail: "restored to full vote"})
		swapped, err := mo.installMaskLocked()
		if err != nil {
			mo.lastErr = err.Error()
			return report, err
		}
		report.Swapped = swapped
		mo.lastErr = ""
	}
	return report, nil
}

// repairFrozenLocked handles the frozen-binary case: no float memory
// exists, so the only repair is a wholesale reload of the verified
// checkpoint. The load (disk + quantization for a float checkpoint)
// runs with the state lock released; the install goes through the
// compare-and-swap so a swap that landed in between is not reverted.
func (mo *Monitor) repairFrozenLocked(report RepairReport, affected []int) (RepairReport, error) {
	if mo.cfg.CheckpointPath == "" || !mo.ckptArmed {
		report.Reason = "frozen binary snapshot and no armed checkpoint to reload"
		err := mo.failRepair(&report, affected, fmt.Errorf("reliability: %s", report.Reason))
		return report, err
	}
	mo.mu.Unlock()
	eng, err := serve.LoadEngine(mo.cfg.CheckpointPath, "binary")
	mo.mu.Lock()
	if err != nil {
		rerr := mo.failRepair(&report, affected, err)
		return report, rerr
	}
	// Re-validate at repair time: the file may have been rotated since
	// it was armed, and a wholesale reload must not change the serving
	// contract.
	if err := compatible(mo.base, eng.Model()); err != nil {
		rerr := mo.failRepair(&report, affected, err)
		return report, rerr
	}
	swapped, err := mo.srv.SwapIf(mo.cur, eng)
	if err != nil {
		rerr := mo.failRepair(&report, affected, err)
		return report, rerr
	}
	if !swapped {
		// The serving engine changed hands while the checkpoint loaded
		// (operator swap, trainer retrain): the reload must not revert
		// it. The next scrub adopts the new engine and re-evaluates.
		report.Reason = "serving engine changed hands mid-repair; deferring to next scrub"
		return report, nil
	}
	mo.adoptLocked(eng)
	report.Source = "checkpoint"
	report.Repaired = affected
	report.Swapped = true
	mo.repairs.Add(uint64(len(affected)))
	mo.lastErr = ""
	mo.journal(obs.Event{Type: obs.EvRepair, Learners: affected,
		Detail: "source=checkpoint (frozen snapshot reload)"})
	mo.journal(obs.Event{Type: obs.EvUnmask, Learners: affected,
		Detail: "restored to full vote"})
	return report, nil
}

// repairViaTrainerLocked rebuilds the whole ensemble through the
// trainer's hot-retrain path and adopts the result. The retrain is a
// full refit that can run for minutes at paper scale, so the state
// lock is released for its duration — passMu (held by the caller)
// keeps other passes out, while Status keeps answering; the trainer
// installs the result through its own retrain-atomic swap path.
func (mo *Monitor) repairViaTrainerLocked(report RepairReport, affected []int) (RepairReport, error) {
	report.Source = "trainer"
	mo.mu.Unlock()
	rr, err := mo.cfg.Trainer.Retrain()
	mo.mu.Lock()
	if err != nil {
		rerr := mo.failRepair(&report, affected, err)
		return report, rerr
	}
	if !rr.Swapped {
		report.Reason = "trainer retrain skipped: " + rr.Reason
		err := mo.failRepair(&report, affected, fmt.Errorf("reliability: %s", report.Reason))
		return report, err
	}
	mo.adoptLocked(mo.srv.Engine())
	// The refit model no longer derives from the configured checkpoint;
	// checkpoint repair stays off until SetCheckpoint re-arms it.
	mo.ckptArmed = false
	report.Repaired = affected
	report.Swapped = true
	mo.repairs.Add(uint64(len(affected)))
	mo.lastErr = ""
	mo.journal(obs.Event{Type: obs.EvRepair, Learners: affected,
		Detail: "source=trainer retrain"})
	mo.journal(obs.Event{Type: obs.EvUnmask, Learners: affected,
		Detail: "restored to full vote"})
	return report, nil
}

// failRepair marks the listed learners failed on the report, counts
// the failed attempts, and records the error for Status.
func (mo *Monitor) failRepair(report *RepairReport, failed []int, err error) error {
	report.Failed = append(report.Failed, failed...)
	mo.repairFails.Add(uint64(len(failed)))
	mo.lastErr = err.Error()
	mo.journal(obs.Event{Type: obs.EvRepair, Learners: failed,
		Detail: "failed: " + err.Error()})
	return err
}

// journal appends an event stamped with the running pass's correlation
// ID. Without a configured journal it is a no-op; the journal mutex is
// a leaf, so appending with mo.mu held is safe.
func (mo *Monitor) journal(e obs.Event) {
	if mo.cfg.Journal == nil {
		return
	}
	e.Corr = mo.passCorr
	mo.cfg.Journal.Append(e)
}

// Status snapshots the health ledger and counters for /reliability and
// the healthz reliability block.
func (mo *Monitor) Status() serve.ReliabilityStatus {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	st := serve.ReliabilityStatus{
		Learners:     len(mo.ledger),
		SegmentWords: mo.cfg.SegmentWords,
		Scrubs:       mo.scrubs.Load(),
		Detections:   mo.detections.Load(),
		Quarantines:  mo.quarantines.Load(),
		Repairs:      mo.repairs.Load(),
		RepairFails:  mo.repairFails.Load(),
		CanaryRows:   len(mo.canaryX),
		LastScrubMS:  mo.lastScrubMS,
		LastError:    mo.lastErr,
	}
	st.Ledger = make([]serve.LearnerHealth, len(mo.ledger))
	for i, e := range mo.ledger {
		h := serve.LearnerHealth{
			State:           "healthy",
			HealthyFraction: 1,
			IntegrityFaults: e.integrityFaults,
			CanaryFaults:    e.canaryFaults,
			Repairs:         e.repairs,
		}
		if e.hasCanary {
			h.CanaryBaseline, h.CanaryLast = e.baseline, e.last
		}
		switch {
		case e.quarantined:
			h.State = "quarantined"
			h.HealthyFraction = 0
			st.Quarantined = append(st.Quarantined, i)
		case e.hasDimMask():
			h.State = "degraded"
			h.MaskedWords = e.maskedWords(mo.cfg.SegmentWords)
			h.HealthyFraction = e.healthyFraction(mo.cfg.SegmentWords)
			st.MaskedWords += h.MaskedWords
			st.DimMasked = append(st.DimMasked, i)
		}
		st.Ledger[i] = h
	}
	st.Degraded = len(st.Quarantined) > 0 || len(st.DimMasked) > 0
	return st
}

// Start launches the background scrub loop (no-op when ScrubEvery is
// zero or a loop already runs). Each tick scrubs and, when anything is
// masked and a repair source exists, repairs; errors are recorded in
// Status rather than stopping the loop.
func (mo *Monitor) Start() {
	if mo.cfg.ScrubEvery <= 0 {
		return
	}
	mo.loopMu.Lock()
	defer mo.loopMu.Unlock()
	if mo.stop != nil {
		return
	}
	mo.stop = make(chan struct{})
	mo.done = make(chan struct{})
	go mo.loop(mo.stop, mo.done)
}

func (mo *Monitor) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(mo.cfg.ScrubEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			report, err := mo.Scrub()
			if err != nil {
				continue
			}
			if report.Adopted {
				continue
			}
			if mo.autoRepairable() {
				st := mo.Status()
				if len(st.Quarantined) > 0 || len(st.DimMasked) > 0 {
					_, _ = mo.Repair()
				}
			}
		}
	}
}

// autoRepairable reports whether the background loop should attempt a
// repair: a repair source must exist for the current backend, and the
// previous attempt must not have been a total failure that nothing has
// changed since (retrying those only burns a full re-threshold pass
// per tick and inflates the failure counters).
func (mo *Monitor) autoRepairable() bool {
	mo.mu.Lock()
	stuck := mo.autoStuck
	bin := mo.cur.Binary()
	ckpt := mo.cfg.CheckpointPath != "" && mo.ckptArmed
	trainer := mo.cfg.Trainer != nil
	mo.mu.Unlock()
	if stuck {
		return false
	}
	if ckpt || trainer {
		return true
	}
	return bin != nil && !bin.Frozen() // plane corruption re-thresholds from float memory
}

// Stop halts the background loop and waits for an in-flight pass to
// finish. Safe to call without Start and more than once.
func (mo *Monitor) Stop() {
	mo.loopMu.Lock()
	stop, done := mo.stop, mo.done
	mo.stop, mo.done = nil, nil
	mo.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// loadCheckpointModel reads a float ensemble checkpoint from disk.
func loadCheckpointModel(path string) (*boosthd.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return boosthd.Load(f)
}

// compatible verifies that a checkpoint's geometry matches the live
// model's, so a per-learner restore cannot graft vectors from a
// different hyperspace.
func compatible(live, ckpt *boosthd.Model) error {
	switch {
	case ckpt.Cfg.TotalDim != live.Cfg.TotalDim,
		ckpt.Cfg.NumLearners != live.Cfg.NumLearners,
		ckpt.Cfg.Classes != live.Cfg.Classes:
		return fmt.Errorf("checkpoint geometry %d/%d/%d does not match live model %d/%d/%d",
			ckpt.Cfg.TotalDim, ckpt.Cfg.NumLearners, ckpt.Cfg.Classes,
			live.Cfg.TotalDim, live.Cfg.NumLearners, live.Cfg.Classes)
	case ckpt.InputDim() != live.InputDim():
		return fmt.Errorf("checkpoint feature width %d does not match live model %d", ckpt.InputDim(), live.InputDim())
	case ckpt.Gamma() != live.Gamma():
		return fmt.Errorf("checkpoint encoder bandwidth %v does not match live model %v", ckpt.Gamma(), live.Gamma())
	}
	return nil
}
