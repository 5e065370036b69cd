package infer

import (
	"math/rand"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/hdc"
	"boosthd/internal/onlinehd"
)

// viewState is the materialized meaning of a chain of views: which
// learners a tenant overrides, every learner's weight, and its trusted
// dimensions.
type viewState struct {
	over   map[int]*onlinehd.HVClassifier
	alphas []float64
	masks  [][]uint64
}

// apply writes the view rules out over plain values — the oracle the
// engines are checked against.
func (s viewState) apply(v boosthd.View) viewState {
	out := viewState{
		over:   map[int]*onlinehd.HVClassifier{},
		alphas: append([]float64(nil), s.alphas...),
		masks:  append([][]uint64(nil), s.masks...),
	}
	for i, l := range s.over {
		out.over[i] = l
	}
	if v.Healthy != nil {
		copy(out.masks, v.Healthy)
	}
	if d := v.Delta; d != nil {
		for i, l := range d.Learners {
			out.over[i] = l
			out.masks[i] = nil
		}
		for i, a := range d.Alphas {
			if _, ok := d.Learners[i]; ok || s.alphas[i] != 0 {
				out.alphas[i] = a
			}
		}
	}
	for i, q := range v.Masked {
		if q {
			out.alphas[i] = 0
		}
	}
	return out
}

// engine materializes the state over m: a clone with the overrides'
// memory copied in and the alphas set. Float zeroes the untrusted class
// components; packed-binary quantizes first and then clears the
// untrusted words from the confidence masks, recounting them — the
// memory a served view shares is quantized before any mask applies.
func (s viewState) engine(t *testing.T, m *boosthd.Model, backend Backend) *Engine {
	t.Helper()
	full := m.Clone()
	full.Alphas = append([]float64(nil), s.alphas...)
	for i, l := range s.over {
		full.Learners[i] = l.Clone()
	}
	if backend == Float {
		for i, hm := range s.masks {
			if hm == nil {
				continue
			}
			full.Learners[i].MutateClass(func(class []hdc.Vector) {
				for _, cv := range class {
					for k := range cv {
						if hm[k>>6]&(1<<uint(k&63)) == 0 {
							cv[k] = 0
						}
					}
				}
			})
		}
		return NewEngine(full)
	}
	eng, err := NewBinaryEngine(full)
	if err != nil {
		t.Fatal(err)
	}
	eng.Binary().ApplyWordRepair(true, func(learner, _ int, _, mask []uint64) {
		if hm := s.masks[learner]; hm != nil {
			for w := range mask {
				mask[w] &= hm[w]
			}
		}
	})
	return eng
}

// randomView draws a view: each of Masked, Healthy and (when deltas is
// non-empty) Delta is present or absent at random. Dimension masks keep
// at least one whole word per masked learner, so every class keeps
// confidence bits to score with.
func randomView(rng *rand.Rand, m *boosthd.Model, deltas []*boosthd.Delta) boosthd.View {
	n := len(m.Learners)
	var v boosthd.View
	if rng.Intn(2) == 0 {
		v.Masked = make([]bool, n)
		for i := range v.Masked {
			v.Masked[i] = rng.Float64() < 0.3
		}
	}
	if rng.Intn(2) == 0 {
		v.Healthy = make([][]uint64, n)
		for i := range v.Healthy {
			if rng.Float64() < 0.4 {
				continue
			}
			hm := make([]uint64, (m.Learners[i].Dim+63)/64)
			for w := range hm {
				switch rng.Intn(3) {
				case 0:
					hm[w] = rng.Uint64()
				case 1:
					hm[w] = ^uint64(0)
				}
			}
			hm[rng.Intn(len(hm))] = ^uint64(0)
			v.Healthy[i] = hm
		}
	}
	if len(deltas) > 0 && rng.Intn(4) != 0 {
		d := deltas[rng.Intn(len(deltas))]
		v.Delta = &boosthd.Delta{Learners: d.Learners}
		if rng.Intn(2) == 0 {
			// Private alphas, nonzero everywhere: they try to resurrect
			// every learner a quarantine zeroed.
			v.Delta.Alphas = make([]float64, n)
			for i := range v.Delta.Alphas {
				v.Delta.Alphas[i] = 0.1 + rng.Float64()
			}
		}
	}
	return v
}

// TestViewAlgebraProperty drives random Masked × Healthy × Delta views
// through infer.View on the float, packed-binary and frozen binary
// backends, both in one step and chained — a tenant view over a
// quarantined engine, with root = cur.Model() and with root the
// unmasked base — and checks every view predicts bit-for-bit like an
// engine built over the materialized model.
func TestViewAlgebraProperty(t *testing.T) {
	m, X, y := fixture(t, 1024, 4)
	deltas := []*boosthd.Delta{
		tenantDelta(t, m, []int{0}, X[:40], y[:40]),
		tenantDelta(t, m, []int{1, 3}, X[30:70], y[30:70]),
		tenantDelta(t, m, []int{2}, X[60:], y[60:]),
	}
	probe := X[:67] // 16 four-row blocks plus a 3-row remainder

	binEng, err := NewBinaryEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	bases := []struct {
		name    string
		eng     *Engine
		backend Backend
	}{
		{"float", NewEngine(m), Float},
		{"binary", binEng, PackedBinary},
		{"frozen", reloadBinary(t, binEng.Binary()), PackedBinary},
	}
	pristine := viewState{over: map[int]*onlinehd.HVClassifier{},
		alphas: append([]float64(nil), m.Alphas...), masks: make([][]uint64, len(m.Learners))}

	check := func(t *testing.T, what string, got *Engine, want viewState, backend Backend) {
		t.Helper()
		g, err := got.PredictBatch(probe)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.engine(t, m, backend).PredictBatch(probe)
		if err != nil {
			t.Fatal(err)
		}
		for r := range w {
			if g[r] != w[r] {
				t.Fatalf("%s: row %d: view predicts %d, materialized model %d", what, r, g[r], w[r])
			}
		}
	}

	rng := rand.New(rand.NewSource(20251018))
	for trial := 0; trial < 12; trial++ {
		direct := randomView(rng, m, deltas)
		quarantine := randomView(rng, m, nil)
		tenant := randomView(rng, m, deltas)
		for _, b := range bases {
			t.Run(b.name, func(t *testing.T) {
				root := b.eng.Model()
				v, err := View(b.eng, root, direct)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "direct", v, pristine.apply(direct), b.backend)

				q, err := View(b.eng, root, quarantine)
				if err != nil {
					t.Fatal(err)
				}
				over, err := View(q, q.Model(), tenant)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "tenant over quarantine", over, pristine.apply(quarantine).apply(tenant), b.backend)

				fromRoot, err := View(q, root, tenant)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "tenant from unmasked root", fromRoot, pristine.apply(tenant), b.backend)
			})
		}
	}
}
