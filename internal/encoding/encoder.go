// Package encoding maps feature vectors into hyperdimensional space.
//
// The primary encoder is the OnlineHD-style nonlinear projection the paper
// builds on: each output component is a trigonometric activation of a
// Gaussian random projection, h_j = cos(<w_j, x> + b_j) * sin(<w_j, x>)
// with w_j ~ N(0,1)^F and b_j ~ U[0, 2*pi). A plain random-Fourier-feature
// variant (cos only) and a linear projection are provided for ablations.
// An ID-level record encoder for symbolic/classic HDC pipelines completes
// the set.
//
// The batch entry points write into caller-owned flat buffers and tile the
// projection so a batch is one cache-friendly GEMM-style loop rather than
// independent row encodes; the packed-binary backend additionally gets a
// sign-only path that skips the trigonometric evaluation entirely.
package encoding

import (
	"fmt"
	"math"
	"math/rand"

	"boosthd/internal/hdc"
	"boosthd/internal/par"
)

// Kind selects the activation applied to the random projection.
type Kind int

const (
	// Nonlinear is the OnlineHD encoder: cos(wx+b)*sin(wx).
	Nonlinear Kind = iota
	// RFF is the random-Fourier-feature encoder: cos(wx+b).
	RFF
	// Linear applies no activation: the raw Gaussian projection.
	Linear
)

// String names the encoder kind.
func (k Kind) String() string {
	switch k {
	case Nonlinear:
		return "nonlinear"
	case RFF:
		return "rff"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Encoder projects InDim-dimensional features into an OutDim-dimensional
// hyperspace. Construction is deterministic in the seed, so BoostHD
// ensembles and repeated evaluation runs share identical spaces.
//
// Gamma is the kernel bandwidth applied to every projection before the
// trigonometric activation: h_j = act(Gamma * <w_j, x>). For standardized
// (z-scored) features the dot product has variance ~InDim, so the default
// Gamma = 1/sqrt(InDim) keeps the phase spread O(1) regardless of the
// feature width — without it, wide inputs wrap the activations many times
// around the circle and nearby points decorrelate.
type Encoder struct {
	InDim  int
	OutDim int
	Kind   Kind
	Gamma  float64

	// Proj selects the projection representation. The zero value
	// (ProjStored) is the legacy materialized math/rand matrix; the seeded
	// modes (built by NewSeeded*) draw from counter-based splitmix64
	// streams, and ProjSeeded carries no projection memory at all —
	// kernels regenerate rows in flight from wBase/bBase.
	Proj Projection

	// wBase/bBase root the counter streams of the seeded modes; wpr is the
	// number of 64-bit sign words per projection row, ceil(InDim/64).
	wBase, bBase uint64
	wpr          int

	w []float64 // OutDim x InDim projection, row-major (nil when ProjSeeded)
	b []float64 // OutDim phase offsets (nil when ProjSeeded)

	// halfSinB caches 0.5*sin(b_j) for the product-to-sum form of the
	// nonlinear activation: cos(d+b)*sin(d) = 0.5*sin(2d+b) - 0.5*sin(b),
	// which costs one trigonometric evaluation per component instead of
	// two on the inference hot path.
	halfSinB []float64

	// limit is the feature magnitude CheckRow admits (see featureLimit).
	limit float64
}

// DefaultGamma returns the default kernel bandwidth for inDim features:
// 0.25/sqrt(inDim). The 1/sqrt(inDim) factor keeps the projection phase
// O(1) for standardized features; the 0.25 multiplier widens the kernel to
// the scale of typical inter-class distances in z-scored healthcare
// feature spaces (tuned on the synthetic WESAD workload, where it clearly
// dominates 1.0 and 0.5).
func DefaultGamma(inDim int) float64 {
	return 0.25 / math.Sqrt(float64(inDim))
}

// New builds an encoder with N(0,1) projection weights, uniform phases,
// and the DefaultGamma bandwidth, all drawn deterministically from seed.
func New(inDim, outDim int, kind Kind, seed int64) (*Encoder, error) {
	return NewWithGamma(inDim, outDim, kind, DefaultGamma(inDim), seed)
}

// NewWithGamma builds an encoder with an explicit kernel bandwidth.
func NewWithGamma(inDim, outDim int, kind Kind, gamma float64, seed int64) (*Encoder, error) {
	if inDim <= 0 || outDim <= 0 {
		return nil, fmt.Errorf("encoding: invalid dimensions in=%d out=%d", inDim, outDim)
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("encoding: gamma must be positive, got %v", gamma)
	}
	rng := rand.New(rand.NewSource(seed))
	e := &Encoder{
		InDim:  inDim,
		OutDim: outDim,
		Kind:   kind,
		Gamma:  gamma,
		w:      make([]float64, outDim*inDim),
		b:      make([]float64, outDim),
	}
	// The largest |weight| is tracked as the weights are drawn; the local
	// slice keeps the loop from reloading e.w after every call.
	w, maxW := e.w, 0.0
	for i := range w {
		v := rng.NormFloat64()
		w[i] = v
		if v > maxW {
			maxW = v
		} else if -v > maxW {
			maxW = -v
		}
	}
	e.limit = featureLimit(inDim, gamma, maxW)
	for i := range e.b {
		e.b[i] = rng.Float64() * 2 * math.Pi
	}
	if kind == Nonlinear {
		e.halfSinB = make([]float64, outDim)
		for i, b := range e.b {
			e.halfSinB[i] = 0.5 * math.Sin(b)
		}
	}
	return e, nil
}

// featureLimit is the feature magnitude below which no partial sum of
// Gamma*<w_j, x> can overflow: each is at most InDim*maxW*max|x_k|, so
// the cap keeps the dot product, the scaled phase and the nonlinear
// activation's doubled phase below MaxFloat64/2. maxW is the largest
// |weight| of the projection; values below 1 count as 1.
func featureLimit(inDim int, gamma, maxW float64) float64 {
	return math.MaxFloat64 / (4 * float64(inDim) * math.Max(1, maxW) * math.Max(1, gamma))
}

// FeatureLimit returns the bound CheckRow holds every |feature| below.
func (e *Encoder) FeatureLimit() float64 { return e.limit }

// CheckRow validates one feature row before it is encoded: the width
// must be InDim, and every feature finite with magnitude below
// FeatureLimit, so the projection can never overflow into ±Inf or NaN —
// which would otherwise surface as a confident label, or poison every
// learner through an online update. Serving and training entry points
// call it once per row; the kernels themselves check only the width.
func (e *Encoder) CheckRow(x []float64) error {
	if err := e.checkRow(x); err != nil {
		return err
	}
	for k, v := range x {
		if !(math.Abs(v) < e.limit) {
			return fmt.Errorf("encoding: feature %d is %v; features must be finite with magnitude below %.4g", k, v, e.limit)
		}
	}
	return nil
}

// checkRow validates one feature row's width.
func (e *Encoder) checkRow(x []float64) error {
	if len(x) != e.InDim {
		return fmt.Errorf("encoding: feature length %d != InDim %d", len(x), e.InDim)
	}
	return nil
}

// project returns Gamma * <w_j, x> for output component j.
//
//hd:hotpath
func (e *Encoder) project(j int, x []float64) float64 {
	row := e.w[j*e.InDim : (j+1)*e.InDim]
	var dot float64
	for k, wv := range row {
		dot += wv * x[k]
	}
	return dot * e.Gamma
}

// dot4 returns the raw dot products <w_j, x> .. <w_{j+3}, x> of four
// consecutive projection rows against one input row — the one-row
// register block: x[k] is loaded once per step and feeds four independent
// accumulator chains, which hides the floating-point add latency that
// serializes a lone dot product. Each chain still accumulates in index
// order, so every sum is bit-identical to project's.
//
//hd:hotpath
func (e *Encoder) dot4(j int, x []float64) (s0, s1, s2, s3 float64) {
	in := e.InDim
	blk := e.w[j*in : j*in+4*in]
	r0, r1, r2, r3 := blk[:in], blk[in:2*in], blk[2*in:3*in], blk[3*in:]
	x = x[:len(r0)]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	for k, xv := range x {
		s0 += r0[k] * xv
		s1 += r1[k] * xv
		s2 += r2[k] * xv
		s3 += r3[k] * xv
	}
	return s0, s1, s2, s3
}

// activate applies the encoder's activation to the scaled projection d of
// component j.
//
//hd:hotpath
func (e *Encoder) activate(j int, d float64) float64 {
	switch e.Kind {
	case Nonlinear:
		return 0.5*math.Sin(2*d+e.b[j]) - e.halfSinB[j]
	case RFF:
		return math.Cos(d + e.b[j])
	default:
		return d
	}
}

// encodeRange writes components [lo,hi) of the encoding of x into
// dst[0:hi-lo], four components per projection sweep (dot4) with a
// scalar tail.
//
//hd:hotpath
func (e *Encoder) encodeRange(x []float64, lo, hi int, dst []float64) {
	if e.Proj == ProjSeeded {
		e.rematEncodeRange(x, lo, hi, dst)
		return
	}
	g := e.Gamma
	dst = dst[:hi-lo]
	j := lo
	for ; j+4 <= hi; j += 4 {
		s0, s1, s2, s3 := e.dot4(j, x)
		d := dst[j-lo : j-lo+4]
		d[0] = e.activate(j, s0*g)
		d[1] = e.activate(j+1, s1*g)
		d[2] = e.activate(j+2, s2*g)
		d[3] = e.activate(j+3, s3*g)
	}
	for ; j < hi; j++ {
		dst[j-lo] = e.activate(j, e.project(j, x))
	}
}

// EncodeInto maps one feature vector into hyperspace, writing the result
// into dst (length OutDim). It allocates nothing.
func (e *Encoder) EncodeInto(x []float64, dst []float64) error {
	if err := e.checkRow(x); err != nil {
		return err
	}
	if len(dst) != e.OutDim {
		return fmt.Errorf("encoding: dst length %d != OutDim %d", len(dst), e.OutDim)
	}
	e.encodeRange(x, 0, e.OutDim, dst)
	return nil
}

// Encode maps one feature vector into hyperspace.
func (e *Encoder) Encode(x []float64) (hdc.Vector, error) {
	h := make(hdc.Vector, e.OutDim)
	if err := e.EncodeInto(x, h); err != nil {
		return nil, err
	}
	return h, nil
}

// BatchRowBlock is the row-block granularity of the batch kernels.
// Callers that drive EncodeBatchInto from their own worker pools should
// feed it blocks of at most this many rows: a block then maps to a
// single internal work unit, so the inner par.ForEach stays on the
// caller's goroutine instead of spawning a nested pool.
const BatchRowBlock = 32

// Batch tiling parameters: each worker encodes BatchRowBlock rows at a
// time, sweeping the projection matrix in dimBlock-row tiles so a tile
// of w is loaded once per row block instead of once per row. At typical
// feature widths a tile is tens of kilobytes — cache resident — which
// turns the batch projection into a blocked GEMM-style loop.
const (
	encodeRowBlock = BatchRowBlock
	encodeDimBlock = 256
)

// encodeRange4 encodes components [lo,hi) for four rows at once. Each
// projection row w_j is loaded once and fed to four independent
// accumulator chains — the register-blocking step of the batch GEMM —
// which hides the floating-point add latency that serializes a lone dot
// product. Every row's dot product still accumulates in index order, so
// results are bit-identical to the one-row path.
//
//hd:hotpath
func (e *Encoder) encodeRange4(x0, x1, x2, x3 []float64, lo, hi int, d0, d1, d2, d3 []float64) {
	in := e.InDim
	g := e.Gamma
	// Pin every row to exactly InDim elements so the compiler can drop the
	// bounds checks inside the accumulation loop.
	x0, x1, x2, x3 = x0[:in], x1[:in], x2[:in], x3[:in]
	switch e.Kind {
	case Nonlinear:
		for j := lo; j < hi; j++ {
			row := e.w[j*in : j*in+in]
			var s0, s1, s2, s3 float64
			for k, wv := range row {
				s0 += wv * x0[k]
				s1 += wv * x1[k]
				s2 += wv * x2[k]
				s3 += wv * x3[k]
			}
			b := e.b[j]
			hsb := e.halfSinB[j]
			d0[j] = 0.5*math.Sin(2*(s0*g)+b) - hsb
			d1[j] = 0.5*math.Sin(2*(s1*g)+b) - hsb
			d2[j] = 0.5*math.Sin(2*(s2*g)+b) - hsb
			d3[j] = 0.5*math.Sin(2*(s3*g)+b) - hsb
		}
	case RFF:
		for j := lo; j < hi; j++ {
			row := e.w[j*in : j*in+in]
			var s0, s1, s2, s3 float64
			for k, wv := range row {
				s0 += wv * x0[k]
				s1 += wv * x1[k]
				s2 += wv * x2[k]
				s3 += wv * x3[k]
			}
			b := e.b[j]
			d0[j] = math.Cos(s0*g + b)
			d1[j] = math.Cos(s1*g + b)
			d2[j] = math.Cos(s2*g + b)
			d3[j] = math.Cos(s3*g + b)
		}
	default:
		for j := lo; j < hi; j++ {
			row := e.w[j*in : j*in+in]
			var s0, s1, s2, s3 float64
			for k, wv := range row {
				s0 += wv * x0[k]
				s1 += wv * x1[k]
				s2 += wv * x2[k]
				s3 += wv * x3[k]
			}
			d0[j] = s0 * g
			d1[j] = s1 * g
			d2[j] = s2 * g
			d3[j] = s3 * g
		}
	}
}

// EncodeBatchInto encodes every row of xs into the caller-owned flat
// buffer out: row i occupies out[i*stride+offset : i*stride+offset+OutDim].
// stride >= offset+OutDim lets several encoders (e.g. BoostHD's
// per-segment stack) share one row-major matrix. Rows are processed in
// blocks across workers with the projection tiled for cache reuse.
func (e *Encoder) EncodeBatchInto(xs [][]float64, out []float64, stride, offset int) error {
	if len(xs) == 0 {
		return nil
	}
	if offset < 0 || stride < offset+e.OutDim {
		return fmt.Errorf("encoding: stride %d cannot hold OutDim %d at offset %d", stride, e.OutDim, offset)
	}
	if len(out) < len(xs)*stride {
		return fmt.Errorf("encoding: out length %d < %d rows * stride %d", len(out), len(xs), stride)
	}
	for i, x := range xs {
		if err := e.checkRow(x); err != nil {
			return fmt.Errorf("encoding: row %d: %w", i, err)
		}
	}
	blocks := (len(xs) + encodeRowBlock - 1) / encodeRowBlock
	return par.ForEach(blocks, func(blk int) error {
		lo := blk * encodeRowBlock
		hi := lo + encodeRowBlock
		if hi > len(xs) {
			hi = len(xs)
		}
		dst := func(i int) []float64 { return out[i*stride+offset : i*stride+offset+e.OutDim] }
		if e.Proj == ProjSeeded {
			e.rematEncodeRows(xs, lo, hi, dst)
			return nil
		}
		for j0 := 0; j0 < e.OutDim; j0 += encodeDimBlock {
			j1 := j0 + encodeDimBlock
			if j1 > e.OutDim {
				j1 = e.OutDim
			}
			i := lo
			for ; i+4 <= hi; i += 4 {
				e.encodeRange4(xs[i], xs[i+1], xs[i+2], xs[i+3], j0, j1,
					dst(i), dst(i+1), dst(i+2), dst(i+3))
			}
			for ; i < hi; i++ {
				e.encodeRange(xs[i], j0, j1, dst(i)[j0:j1])
			}
		}
		return nil
	})
}

// EncodeBatch maps a batch of feature vectors. The returned hypervectors
// are views into one flat allocation, encoded with the blocked batch
// kernel.
func (e *Encoder) EncodeBatch(xs [][]float64) ([]hdc.Vector, error) {
	out := make([]hdc.Vector, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	flat := make([]float64, len(xs)*e.OutDim)
	if err := e.EncodeBatchInto(xs, flat, e.OutDim, 0); err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = hdc.Vector(flat[i*e.OutDim : (i+1)*e.OutDim])
	}
	return out, nil
}

const invTwoPi = 1 / (2 * math.Pi)

// phaseFrac returns t/(2*pi) mod 1 in [0,1) — the quadrant information the
// sign-only encoder needs, at the cost of a multiply and a floor instead
// of a full trigonometric evaluation.
//
//hd:hotpath
func phaseFrac(t float64) float64 {
	f := t * invTwoPi
	return f - math.Floor(f)
}

// EncodeBitsRange writes the sign bits of encoding components [lo,hi) of x
// into dst: bit k of dst is set iff component lo+k of the real encoding is
// >= 0. For the trigonometric kinds the sign is derived from the phase
// quadrants directly — sign(cos(d+b)*sin(d)) = sign(cos(d+b))*sign(sin(d))
// — so the packed-binary backend never evaluates sin or cos at all.
func (e *Encoder) EncodeBitsRange(x []float64, lo, hi int, dst *hdc.BitVector) error {
	if err := e.checkRow(x); err != nil {
		return err
	}
	if lo < 0 || hi > e.OutDim || lo > hi {
		return fmt.Errorf("encoding: bit range [%d,%d) outside [0,%d)", lo, hi, e.OutDim)
	}
	if dst.N != hi-lo {
		return fmt.Errorf("encoding: bit destination dim %d != range width %d", dst.N, hi-lo)
	}
	if e.Proj == ProjSeeded {
		e.rematEncodeBitsRange(x, lo, hi, dst)
		return nil
	}
	e.encodeBits1(x, lo, hi, dst)
	return nil
}

// b2u is 1 for true and 0 for false. The compiler lowers it to a flag
// set, not a branch.
//
//hd:hotpath
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// signBit returns 1 iff the encoding component with scaled projection d
// and phase b is >= 0, read off the phase quadrants without a branch on
// the (coin-flip) outcome: Nonlinear is the XNOR of the signs of cos(d+b)
// and sin(d), RFF the sign of cos(d+b), Linear the sign of d itself.
//
//hd:hotpath
func signBit(kind Kind, d, b float64) uint64 {
	switch kind {
	case Nonlinear:
		fc := phaseFrac(d + b)
		return b2u(phaseFrac(d) > 0.5) ^ (b2u(fc > 0.25) & b2u(fc < 0.75)) ^ 1
	case RFF:
		fc := phaseFrac(d + b)
		return (b2u(fc > 0.25) & b2u(fc < 0.75)) ^ 1
	default:
		return b2u(d >= 0)
	}
}

// encodeBits1 is the one-row sign-bit kernel: components are swept four
// at a time through dot4, each sign is ORed into a register word without
// branching, and whole 64-bit words are stored into dst (dst.N == hi-lo).
//
//hd:hotpath
func (e *Encoder) encodeBits1(x []float64, lo, hi int, dst *hdc.BitVector) {
	g := e.Gamma
	kind := e.Kind
	for jStart := lo; jStart < hi; jStart += 64 {
		jEnd := min(jStart+64, hi)
		var word uint64
		j := jStart
		for ; j+4 <= jEnd; j += 4 {
			s0, s1, s2, s3 := e.dot4(j, x)
			b := e.b[j : j+4]
			word |= (signBit(kind, s0*g, b[0]) |
				signBit(kind, s1*g, b[1])<<1 |
				signBit(kind, s2*g, b[2])<<2 |
				signBit(kind, s3*g, b[3])<<3) << uint(j-jStart)
		}
		for ; j < jEnd; j++ {
			word |= signBit(kind, e.project(j, x), e.b[j]) << uint(j-jStart)
		}
		dst.Words[(jStart-lo)/64] = word
	}
}

// EncodeBitsRangeBatch encodes components [lo,hi) of every row of xs into
// dst: bit k of dst[r] is the sign bit of component lo+k of row r's
// encoding. Rows are register-blocked four at a time like the float batch
// kernel, and bits are assembled in registers and flushed a whole 64-bit
// word at a time.
func (e *Encoder) EncodeBitsRangeBatch(xs [][]float64, lo, hi int, dst []*hdc.BitVector) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("encoding: %d bit destinations for %d rows", len(dst), len(xs))
	}
	for i, x := range xs {
		if err := e.checkRow(x); err != nil {
			return fmt.Errorf("encoding: row %d: %w", i, err)
		}
	}
	if lo < 0 || hi > e.OutDim || lo > hi {
		return fmt.Errorf("encoding: bit range [%d,%d) outside [0,%d)", lo, hi, e.OutDim)
	}
	// Destinations must be exactly the range width: the 4-row kernel
	// stores whole 64-bit words, so a wider vector would have bits beyond
	// the range zeroed (and inconsistently so between the blocked and
	// scalar row paths).
	for i, d := range dst {
		if d.N != hi-lo {
			return fmt.Errorf("encoding: row %d bit destination dim %d != range width %d", i, d.N, hi-lo)
		}
	}
	if e.Proj == ProjSeeded {
		e.rematEncodeBitsBatch(xs, lo, hi, dst)
		return nil
	}
	r := 0
	for ; r+4 <= len(xs); r += 4 {
		e.encodeBits4(xs[r], xs[r+1], xs[r+2], xs[r+3], lo, hi,
			dst[r], dst[r+1], dst[r+2], dst[r+3])
	}
	for ; r < len(xs); r++ {
		e.encodeBits1(xs[r], lo, hi, dst[r])
	}
	return nil
}

// encodeBits4 is the four-row register-blocked core of the sign-bit
// encoder: one shared sweep of the projection rows feeds four independent
// dot-product chains, each component's sign is read off its phase, and
// completed 64-bit words are stored directly into the destinations.
//
//hd:hotpath
func (e *Encoder) encodeBits4(x0, x1, x2, x3 []float64, lo, hi int, d0, d1, d2, d3 *hdc.BitVector) {
	in := e.InDim
	g := e.Gamma
	x0, x1, x2, x3 = x0[:in], x1[:in], x2[:in], x3[:in]
	if e.Kind == Nonlinear {
		// The hot configuration gets a fully inlined body: the sign of
		// cos(d+b)*sin(d) is the XNOR of the two factors' phase signs,
		// packed without a branch as in signBit.
		for jStart := lo; jStart < hi; jStart += 64 {
			jEnd := jStart + 64
			if jEnd > hi {
				jEnd = hi
			}
			var w0, w1, w2, w3 uint64
			for j := jStart; j < jEnd; j++ {
				row := e.w[j*in : j*in+in]
				var s0, s1, s2, s3 float64
				for k, wv := range row {
					s0 += wv * x0[k]
					s1 += wv * x1[k]
					s2 += wv * x2[k]
					s3 += wv * x3[k]
				}
				bj := e.b[j]
				sh := uint(j - jStart)
				p0, p1, p2, p3 := s0*g, s1*g, s2*g, s3*g
				f0, f1, f2, f3 := phaseFrac(p0+bj), phaseFrac(p1+bj), phaseFrac(p2+bj), phaseFrac(p3+bj)
				w0 |= (b2u(phaseFrac(p0) > 0.5) ^ (b2u(f0 > 0.25) & b2u(f0 < 0.75)) ^ 1) << sh
				w1 |= (b2u(phaseFrac(p1) > 0.5) ^ (b2u(f1 > 0.25) & b2u(f1 < 0.75)) ^ 1) << sh
				w2 |= (b2u(phaseFrac(p2) > 0.5) ^ (b2u(f2 > 0.25) & b2u(f2 < 0.75)) ^ 1) << sh
				w3 |= (b2u(phaseFrac(p3) > 0.5) ^ (b2u(f3 > 0.25) & b2u(f3 < 0.75)) ^ 1) << sh
			}
			wIdx := (jStart - lo) / 64
			d0.Words[wIdx] = w0
			d1.Words[wIdx] = w1
			d2.Words[wIdx] = w2
			d3.Words[wIdx] = w3
		}
		return
	}
	for jStart := lo; jStart < hi; jStart += 64 {
		jEnd := jStart + 64
		if jEnd > hi {
			jEnd = hi
		}
		var w0, w1, w2, w3 uint64
		for j := jStart; j < jEnd; j++ {
			row := e.w[j*in : j*in+in]
			var s0, s1, s2, s3 float64
			for k, wv := range row {
				s0 += wv * x0[k]
				s1 += wv * x1[k]
				s2 += wv * x2[k]
				s3 += wv * x3[k]
			}
			bj := e.b[j]
			sh := uint(j - jStart)
			w0 |= signBit(e.Kind, s0*g, bj) << sh
			w1 |= signBit(e.Kind, s1*g, bj) << sh
			w2 |= signBit(e.Kind, s2*g, bj) << sh
			w3 |= signBit(e.Kind, s3*g, bj) << sh
		}
		wIdx := (jStart - lo) / 64
		d0.Words[wIdx] = w0
		d1.Words[wIdx] = w1
		d2.Words[wIdx] = w2
		d3.Words[wIdx] = w3
	}
}

// ProjectionMatrix returns a copy of the OutDim x InDim projection weights;
// the random-matrix experiments inspect encoder spectra through it. On a
// rematerialized (ProjSeeded) encoder the matrix is not resident: the rows
// are generated on demand from the counter streams, which is O(OutDim x
// InDim) work and allocation — identical bits to what a ProjSeededStored
// encoder of the same seed holds, but deliberately not cached so the
// encoder keeps its O(1) state.
func (e *Encoder) ProjectionMatrix() []float64 {
	if e.Proj == ProjSeeded {
		return e.materializeRows(0, e.OutDim)
	}
	out := make([]float64, len(e.w))
	copy(out, e.w)
	return out
}
