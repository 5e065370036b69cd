package boosthd

import (
	"fmt"
	"math"

	"boosthd/internal/encoding"
	"boosthd/internal/hdc"
)

// hdEncoder abstracts the encoding stage of a BoostHD model: a single
// shared projection, or one projection per dimension segment. Beyond the
// per-row and batch float paths it exposes the two engine entry points:
// EncodeBatchInto writes a batch into one caller-owned flat matrix, and
// EncodeSegmentBits emits packed sign bits per dimension segment for the
// binary backend.
type hdEncoder interface {
	Encode(x []float64) (hdc.Vector, error)
	EncodeBatch(xs [][]float64) ([]hdc.Vector, error)
	// EncodeBatchInto writes row i into out[i*stride : i*stride+width],
	// where width is the encoder's total output dimension.
	EncodeBatchInto(xs [][]float64, out []float64, stride, offset int) error
	// EncodeSegmentBits writes the sign bits of segment i of x's encoding
	// into dst[i].
	EncodeSegmentBits(x []float64, segs []segment, dst []*hdc.BitVector) error
	// EncodeSegmentBitsBatch writes the sign bits of segment i of row r's
	// encoding into dst[r][i], register-blocking rows.
	EncodeSegmentBitsBatch(xs [][]float64, segs []segment, dst [][]*hdc.BitVector) error
	// StateBytes reports the stack's resident encoder state — the number
	// the rematerialized-projection mode exists to shrink.
	StateBytes() int
	// CheckRow validates one raw feature row against every projection
	// of the stack (see encoding.Encoder.CheckRow).
	CheckRow(x []float64) error
}

// singleEncoder adapts one shared full-width projection to the hdEncoder
// interface (the GammaSpread <= 1 configuration).
type singleEncoder struct {
	*encoding.Encoder
}

// EncodeSegmentBits extracts each segment's sign bits from the shared
// projection by encoding the matching component range.
func (se singleEncoder) EncodeSegmentBits(x []float64, segs []segment, dst []*hdc.BitVector) error {
	for i, s := range segs {
		if err := se.Encoder.EncodeBitsRange(x, s.lo, s.hi, dst[i]); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return nil
}

// EncodeSegmentBitsBatch extracts each segment's sign bits for a block of
// rows through the register-blocked batch kernel.
func (se singleEncoder) EncodeSegmentBitsBatch(xs [][]float64, segs []segment, dst [][]*hdc.BitVector) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("boosthd: %d bit destinations for %d rows", len(dst), len(xs))
	}
	var buf [encoding.BatchRowBlock]*hdc.BitVector
	cols := bitColumns(&buf, len(xs))
	for i, s := range segs {
		for r := range xs {
			cols[r] = dst[r][i]
		}
		if err := se.Encoder.EncodeBitsRangeBatch(xs, s.lo, s.hi, cols); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return nil
}

// bitColumns returns an n-element column slice for the segment-major
// batch bits kernels, backed by buf (a caller stack array) whenever n fits
// a row block, so the serving path's block-sized calls allocate nothing.
func bitColumns(buf *[encoding.BatchRowBlock]*hdc.BitVector, n int) []*hdc.BitVector {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]*hdc.BitVector, n)
}

// spreadEncoder realizes Figure 1's per-learner "HD Encoding" boxes: each
// weak learner's dimension segment is produced by its own random
// projection with its own kernel bandwidth. Spreading the bandwidths
// geometrically around the base gamma gives the ensemble multi-scale
// views of the input — coarse kernels for broad structure, sharp kernels
// for fine structure — which is diversity a single shared bandwidth
// cannot provide.
type spreadEncoder struct {
	encs   []*encoding.Encoder // one per segment
	offs   []int               // segment start offset within the full width
	out    int
	strict *encoding.Encoder // the sub-encoder with the smallest feature limit
}

// newSubEncoder builds one projection for the stack, honoring the
// configured projection mode: the legacy stored math/rand matrix for the
// zero value (existing checkpoints rebuild byte-identical encoders), a
// counter-based seeded encoder otherwise. The seed schedule is shared
// across modes, so a config differs only in where its projection lives.
func newSubEncoder(features, outDim int, cfg Config, gamma float64, seed int64) (*encoding.Encoder, error) {
	if cfg.Projection == encoding.ProjStored {
		return encoding.NewWithGamma(features, outDim, cfg.Encoder, gamma, seed)
	}
	return encoding.NewSeededWithGamma(features, outDim, cfg.Encoder, gamma, seed, cfg.Projection)
}

// newSpreadEncoder builds the encoder stack for cfg. GammaSpread <= 1 (or
// a single learner) degenerates to one shared encoder with the base
// bandwidth; otherwise learner i gets bandwidth
// gamma * spread^(2i/(NL-1) - 1), covering [gamma/spread, gamma*spread].
func newSpreadEncoder(features int, cfg Config, gamma float64) (hdEncoder, error) {
	if cfg.GammaSpread <= 1 || cfg.NumLearners == 1 {
		enc, err := newSubEncoder(features, cfg.TotalDim, cfg, gamma, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return singleEncoder{enc}, nil
	}
	segs := partition(cfg.TotalDim, cfg.NumLearners)
	se := &spreadEncoder{out: cfg.TotalDim}
	nl := float64(cfg.NumLearners - 1)
	for i, s := range segs {
		t := 2*float64(i)/nl - 1 // -1 .. +1 across learners
		g := gamma * pow(cfg.GammaSpread, t)
		enc, err := newSubEncoder(features, s.hi-s.lo, cfg, g, cfg.Seed+int64(i)*7717)
		if err != nil {
			return nil, fmt.Errorf("boosthd: segment %d encoder: %w", i, err)
		}
		se.encs = append(se.encs, enc)
		se.offs = append(se.offs, s.lo)
		if se.strict == nil || enc.FeatureLimit() < se.strict.FeatureLimit() {
			se.strict = enc
		}
	}
	return se, nil
}

// CheckRow validates x against the sub-encoder with the smallest feature
// limit: every projection of the stack shares the input width, so a row
// that one admits, all admit.
func (se *spreadEncoder) CheckRow(x []float64) error { return se.strict.CheckRow(x) }

func pow(base, exp float64) float64 {
	if base <= 0 {
		return 1
	}
	return math.Pow(base, exp)
}

// Encode concatenates the per-segment encodings into one full-width
// hypervector, preserving the segment layout the learners expect.
func (se *spreadEncoder) Encode(x []float64) (hdc.Vector, error) {
	out := make(hdc.Vector, se.out)
	for i, enc := range se.encs {
		if err := enc.EncodeInto(x, out[se.offs[i]:se.offs[i]+enc.OutDim]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeBatchInto encodes every row into the flat matrix: each sub-encoder
// writes its segment at the segment's offset within the row stride, so the
// batch is a sequence of blocked projections over the same input rows.
func (se *spreadEncoder) EncodeBatchInto(xs [][]float64, out []float64, stride, offset int) error {
	for i, enc := range se.encs {
		if err := enc.EncodeBatchInto(xs, out, stride, offset+se.offs[i]); err != nil {
			return err
		}
	}
	return nil
}

// EncodeBatch encodes every row into views of one flat allocation.
func (se *spreadEncoder) EncodeBatch(xs [][]float64) ([]hdc.Vector, error) {
	outs := make([]hdc.Vector, len(xs))
	if len(xs) == 0 {
		return outs, nil
	}
	flat := make([]float64, len(xs)*se.out)
	if err := se.EncodeBatchInto(xs, flat, se.out, 0); err != nil {
		return nil, err
	}
	for i := range outs {
		outs[i] = hdc.Vector(flat[i*se.out : (i+1)*se.out])
	}
	return outs, nil
}

// StateBytes sums the sub-encoders' resident state.
func (se *spreadEncoder) StateBytes() int {
	total := 0
	for _, enc := range se.encs {
		total += enc.StateBytes()
	}
	return total
}

// EncodeSegmentBits asks each per-segment sub-encoder for its sign bits
// directly; segment i of the model maps 1:1 onto sub-encoder i.
func (se *spreadEncoder) EncodeSegmentBits(x []float64, segs []segment, dst []*hdc.BitVector) error {
	if len(segs) != len(se.encs) {
		return fmt.Errorf("boosthd: %d segments for %d sub-encoders", len(segs), len(se.encs))
	}
	for i, enc := range se.encs {
		if err := enc.EncodeBitsRange(x, 0, enc.OutDim, dst[i]); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return nil
}

// EncodeSegmentBitsBatch runs each sub-encoder's register-blocked bits
// kernel over the whole row block.
func (se *spreadEncoder) EncodeSegmentBitsBatch(xs [][]float64, segs []segment, dst [][]*hdc.BitVector) error {
	if len(segs) != len(se.encs) {
		return fmt.Errorf("boosthd: %d segments for %d sub-encoders", len(segs), len(se.encs))
	}
	if len(dst) != len(xs) {
		return fmt.Errorf("boosthd: %d bit destinations for %d rows", len(dst), len(xs))
	}
	var buf [encoding.BatchRowBlock]*hdc.BitVector
	cols := bitColumns(&buf, len(xs))
	for i, enc := range se.encs {
		for r := range xs {
			cols[r] = dst[r][i]
		}
		if err := enc.EncodeBitsRangeBatch(xs, 0, enc.OutDim, cols); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return nil
}
