package boosthd

import (
	"fmt"

	"boosthd/internal/onlinehd"
)

// View describes one serving view of a model: which learners are
// silenced, which dimensions of each learner are trusted, and which
// learners a tenant overrides. The reliability quarantine and the
// multi-tenant delta are both views, and they compose: a tenant view
// built over a quarantined model keeps the quarantine for every learner
// it shares. The zero View is the plain alpha view — the receiver's
// learners and masks with a private copy of its alphas, the swap unit of
// an alpha-only retrain.
type View struct {
	// Masked, when non-nil, holds one entry per learner: true zeroes that
	// learner's vote, and the scoring paths never read its (possibly
	// corrupted) memory.
	Masked []bool
	// Healthy, when non-nil, replaces the receiver's dimension masks:
	// learner-major packed bitmasks over each learner's local dimensions
	// (bit d of word d/64 set means dimension d is trusted). A nil entry
	// trusts every dimension of that learner. A learner with a mask keeps
	// voting, with its untrusted class components read as zero.
	Healthy [][]uint64
	// Delta, when non-nil, overrides learners with a tenant's own class
	// memories and, optionally, its private alphas.
	Delta *Delta
}

// View returns the model v describes over m. It shares m's encoder
// stack and every learner the delta does not override — so repairs and
// streaming updates land in memory the view serves — and owns its alpha
// slice. The rules compose in one place:
//
//   - alphas are Delta.Alphas when set, else m's. A learner m weights 0
//     stays 0 unless the delta overrides it: private alphas must not
//     resurrect a learner whose shared memory is untrusted. Masked[i]
//     zeroes learner i.
//   - dimension masks are Healthy when non-nil, else m's. An overridden
//     learner drops its mask: its memory is the tenant's own.
//
// The view scores bit-for-bit like m cloned with the overrides
// installed, the same alphas zeroed and the untrusted class components
// zeroed.
func (m *Model) View(v View) (*Model, error) {
	n := len(m.Learners)
	if v.Masked != nil && len(v.Masked) != n {
		return nil, fmt.Errorf("boosthd: view: %d mask entries for %d learners", len(v.Masked), n)
	}
	masks := m.dimMasks
	if v.Healthy != nil {
		if len(v.Healthy) != n {
			return nil, fmt.Errorf("boosthd: view: %d dimension masks for %d learners", len(v.Healthy), n)
		}
		for i, hm := range v.Healthy {
			if want := (m.Learners[i].Dim + 63) / 64; hm != nil && len(hm) != want {
				return nil, fmt.Errorf("boosthd: view: learner %d dimension mask has %d words, want %d", i, len(hm), want)
			}
		}
		masks = v.Healthy
	}
	out := &Model{Cfg: m.Cfg, Enc: m.Enc, Learners: m.Learners,
		Alphas: append([]float64(nil), m.Alphas...),
		segs:   m.segs, gamma: m.gamma, inputDim: m.inputDim, dimMasks: masks}
	if d := v.Delta; d != nil {
		if d.Alphas != nil && len(d.Alphas) != n {
			return nil, fmt.Errorf("boosthd: view: %d delta alphas for %d learners", len(d.Alphas), n)
		}
		out.Learners = append([]*onlinehd.HVClassifier(nil), m.Learners...)
		for i, l := range d.Learners {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("boosthd: view: override for learner %d outside [0,%d)", i, n)
			}
			if l == nil {
				return nil, fmt.Errorf("boosthd: view: nil override for learner %d", i)
			}
			if b := m.Learners[i]; l.Dim != b.Dim || l.Classes != b.Classes {
				return nil, fmt.Errorf("boosthd: view: learner %d override is %dx%d, base is %dx%d",
					i, l.Dim, l.Classes, b.Dim, b.Classes)
			}
			out.Learners[i] = l
		}
		for i, a := range d.Alphas {
			if m.Alphas[i] != 0 || d.Learners[i] != nil {
				out.Alphas[i] = a
			}
		}
		if masks != nil && len(d.Learners) > 0 {
			out.dimMasks = append([][]uint64(nil), masks...)
			for i := range d.Learners {
				out.dimMasks[i] = nil
			}
		}
	}
	for i, q := range v.Masked {
		if q {
			out.Alphas[i] = 0
		}
	}
	return out, nil
}
