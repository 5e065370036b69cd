package encoding

import (
	"fmt"
	"math"
	"sync"

	"boosthd/internal/hdc"
)

// tilePool recycles the per-call +-1 projection tiles of the
// rematerialized batch kernels. Small serving batches would otherwise
// allocate a tile per (learner, call) — tens of kilobytes each — and
// spend more in the allocator than in the tile regeneration itself.
var tilePool sync.Pool

func getTile(n int) []float64 {
	if v := tilePool.Get(); v != nil {
		if t := v.([]float64); cap(t) >= n {
			return t[:n]
		}
	}
	return make([]float64, n)
}

func putTile(t []float64) { tilePool.Put(t) }

// Projection selects where an encoder's random projection lives.
//
// The legacy encoder (ProjStored) materializes an OutDim x InDim float64
// matrix drawn from math/rand — at paper scale (D=10000, F=36) that is
// ~2.9 MB of state swept once per encoded row block, and it dominates both
// encoder memory and cache traffic. The seeded modes replace the Gaussian
// matrix with Rademacher (+1/-1) rows produced by a counter-based
// splitmix64 generator keyed on (seed, row, feature-word): any projection
// word is computable in O(1) from the seed alone, so the rows can either
// be materialized once at construction (ProjSeededStored) or regenerated
// inside the encode kernel on every sweep (ProjSeeded), in which case the
// encoder carries O(1) projection state and stays cache-resident at any
// dimensionality. The two seeded modes are bit-identical for the same
// seed: a +1/-1 multiply-add and a sign-flipped add produce the same IEEE
// bits, and both modes draw phases from the same counter stream.
type Projection int

const (
	// ProjStored is the legacy materialized Gaussian projection drawn
	// sequentially from math/rand. It remains the default so existing
	// checkpoints rebuild the exact encoder they were trained with.
	ProjStored Projection = iota
	// ProjSeededStored materializes the counter-based Rademacher rows and
	// phases at construction and runs the standard stored-matrix kernels.
	ProjSeededStored
	// ProjSeeded rematerializes projection rows and phases inside the
	// encode kernels from the splitmix64 counter streams: O(1) encoder
	// state, no projection memory traffic.
	ProjSeeded
)

// String names the projection mode.
func (p Projection) String() string {
	switch p {
	case ProjStored:
		return "stored"
	case ProjSeededStored:
		return "seeded-stored"
	case ProjSeeded:
		return "seeded"
	default:
		return fmt.Sprintf("Projection(%d)", int(p))
	}
}

// ParseProjection maps a CLI spelling onto a projection mode.
func ParseProjection(s string) (Projection, error) {
	switch s {
	case "", "stored", "legacy":
		return ProjStored, nil
	case "seeded-stored", "seeded_stored":
		return ProjSeededStored, nil
	case "seeded", "remat", "rematerialized":
		return ProjSeeded, nil
	default:
		return 0, fmt.Errorf("encoding: unknown projection mode %q (want stored, seeded-stored, or seeded)", s)
	}
}

// splitmix64 constants: the golden-ratio increment and the two finalizer
// multipliers of the reference implementation. counterRand(base, i) is the
// i'th output of the stream rooted at base, computable in O(1) — the
// property rematerialization depends on.
const sm64Gamma = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer.
//
//hd:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// counterRand returns element i of the splitmix64 stream rooted at base.
//
//hd:hotpath
func counterRand(base, i uint64) uint64 {
	return mix64(base + (i+1)*sm64Gamma)
}

// Stream domain-separation tags: the projection-sign and phase streams of
// one seed must be independent.
const (
	wStreamTag = 0xA3EC647659359ACD
	bStreamTag = 0x144CBEC857BA675D
)

// seededBases derives the two stream roots for a seed.
func seededBases(seed int64) (wBase, bBase uint64) {
	return mix64(uint64(seed) ^ wStreamTag), mix64(uint64(seed) ^ bStreamTag)
}

// toUnit maps a uint64 onto [0,1) with 53 bits of precision, matching the
// resolution of rand.Float64 without its stream coupling.
//
//hd:hotpath
func toUnit(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

const twoPi = 2 * math.Pi

// NewSeeded builds a counter-based encoder in the requested seeded mode
// with the DefaultGamma bandwidth.
func NewSeeded(inDim, outDim int, kind Kind, seed int64, proj Projection) (*Encoder, error) {
	return NewSeededWithGamma(inDim, outDim, kind, DefaultGamma(inDim), seed, proj)
}

// NewSeededWithGamma builds a counter-based encoder with an explicit
// kernel bandwidth. proj selects materialized (ProjSeededStored) or
// rematerialized (ProjSeeded) projection rows; the two are bit-identical
// for the same seed. ProjStored is rejected — the legacy math/rand
// encoder is built by NewWithGamma.
func NewSeededWithGamma(inDim, outDim int, kind Kind, gamma float64, seed int64, proj Projection) (*Encoder, error) {
	if proj != ProjSeededStored && proj != ProjSeeded {
		return nil, fmt.Errorf("encoding: NewSeeded requires a seeded projection mode, got %v", proj)
	}
	if inDim <= 0 || outDim <= 0 {
		return nil, fmt.Errorf("encoding: invalid dimensions in=%d out=%d", inDim, outDim)
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("encoding: gamma must be positive, got %v", gamma)
	}
	e := &Encoder{
		InDim:  inDim,
		OutDim: outDim,
		Kind:   kind,
		Gamma:  gamma,
		Proj:   proj,
		wpr:    (inDim + 63) / 64,
		limit:  featureLimit(inDim, gamma, 1), // Rademacher weights are ±1
	}
	e.wBase, e.bBase = seededBases(seed)
	if proj == ProjSeeded {
		return e, nil
	}
	// Materialize the counter streams into the standard stored layout so
	// the existing kernels (and their register blocking) run unchanged.
	e.w = e.materializeRows(0, outDim)
	e.b = make([]float64, outDim)
	for j := range e.b {
		e.b[j] = e.phaseAt(j)
	}
	if kind == Nonlinear {
		e.halfSinB = make([]float64, outDim)
		for j, b := range e.b {
			e.halfSinB[j] = 0.5 * math.Sin(b)
		}
	}
	return e, nil
}

// signWord returns the packed Rademacher signs of projection row j for
// feature word t (bit k set means weight +1 for feature t*64+k).
//
//hd:hotpath
func (e *Encoder) signWord(j, t int) uint64 {
	return counterRand(e.wBase, uint64(j)*uint64(e.wpr)+uint64(t))
}

// phaseAt returns the phase offset of output component j from the phase
// counter stream.
//
//hd:hotpath
func (e *Encoder) phaseAt(j int) float64 {
	return twoPi * toUnit(counterRand(e.bBase, uint64(j)))
}

// materializeRowsInto generates rows [lo,hi) of the seeded projection as
// +1/-1 float64 values into out (row-major, len >= (hi-lo)*InDim). The
// batch kernels call it once per (dimension tile, row block) — blocked
// rematerialization: the tile regeneration is O(tile) against O(tile x
// rows) of dot-product work, so the kernels keep the stored GEMM inner
// loop while the resident encoder stays O(1).
//
//hd:hotpath
func (e *Encoder) materializeRowsInto(lo, hi int, out []float64) {
	const one = 0x3FF0000000000000 // math.Float64bits(1.0)
	for j := lo; j < hi; j++ {
		row := out[(j-lo)*e.InDim : (j-lo+1)*e.InDim]
		for t := 0; t < e.wpr; t++ {
			bits := e.signWord(j, t)
			kEnd := t*64 + 64
			if kEnd > e.InDim {
				kEnd = e.InDim
			}
			// Branchless: a set bit selects +1.0, a clear bit flips the
			// IEEE sign to -1.0. Against 50/50-random sign bits the
			// obvious if/else mispredicts half the time and dominates
			// the regeneration cost.
			for k := t * 64; k < kEnd; k++ {
				row[k] = math.Float64frombits(one | (bits&1^1)<<63)
				bits >>= 1
			}
		}
	}
}

// materializeRows allocates and generates rows [lo,hi) of the seeded
// projection — O((hi-lo) x InDim) work, the price ProjSeeded pays only
// when something (spectrum analysis, ProjectionMatrix) asks for the
// dense matrix.
func (e *Encoder) materializeRows(lo, hi int) []float64 {
	out := make([]float64, (hi-lo)*e.InDim)
	e.materializeRowsInto(lo, hi, out)
	return out
}

// StateBytes reports the encoder's resident state in bytes: the
// projection matrix, phases, and activation cache for the stored modes;
// O(1) for the rematerialized mode. This is the number the -exp infer
// sweep sizes encoder memory by.
func (e *Encoder) StateBytes() int {
	const header = 64 // struct scalars
	return header + 8*(len(e.w)+len(e.b)+len(e.halfSinB))
}

// flipSign64 adds x to s with its sign conditionally flipped: sgn is
// either 0 (keep) or 1<<63 (negate). An IEEE sign-bit XOR is exactly the
// multiplication by -1 the stored kernel performs, so the rematerialized
// accumulation is bit-identical to the materialized one — and branchless,
// which matters against 50/50-random sign bits.
//
//hd:hotpath
func flipSign64(x float64, sgn uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ sgn)
}

// rematDot computes <w_j, x> with row j regenerated from the sign stream.
// Accumulation runs in feature index order, matching the stored kernel.
//
//hd:hotpath
func (e *Encoder) rematDot(j int, x []float64) float64 {
	x = x[:e.InDim]
	var s float64
	for t := 0; t < e.wpr; t++ {
		bits := e.signWord(j, t)
		kEnd := t*64 + 64
		if kEnd > e.InDim {
			kEnd = e.InDim
		}
		for k := t * 64; k < kEnd; k++ {
			s += flipSign64(x[k], (bits&1^1)<<63)
			bits >>= 1
		}
	}
	return s
}

// rematEncodeRange is the scalar rematerialized float kernel: components
// [lo,hi) of one row, with phases (and the nonlinear activation's
// 0.5*sin(b) term) regenerated per component. The batch path amortizes
// that regeneration across a row block; this path serves single-row
// Encode calls.
//
//hd:hotpath
func (e *Encoder) rematEncodeRange(x []float64, lo, hi int, dst []float64) {
	g := e.Gamma
	switch e.Kind {
	case Nonlinear:
		for j := lo; j < hi; j++ {
			d := e.rematDot(j, x) * g
			b := e.phaseAt(j)
			dst[j-lo] = 0.5*math.Sin(2*d+b) - 0.5*math.Sin(b)
		}
	case RFF:
		for j := lo; j < hi; j++ {
			dst[j-lo] = math.Cos(e.rematDot(j, x)*g + e.phaseAt(j))
		}
	default:
		for j := lo; j < hi; j++ {
			dst[j-lo] = e.rematDot(j, x) * g
		}
	}
}

// phaseTile fills b (and, for the nonlinear activation, hsb = 0.5*sin(b))
// for components [j0,j1). The batch kernels fill one tile per dimension
// block and reuse it across every row group in the block, so the sin()
// the nonlinear activation needs costs one evaluation per (component,
// row-block) instead of one per (component, row-quad).
//
//hd:hotpath
func (e *Encoder) phaseTile(j0, j1 int, b, hsb []float64) {
	for j := j0; j < j1; j++ {
		b[j-j0] = e.phaseAt(j)
	}
	if e.Kind == Nonlinear {
		for i, bv := range b[:j1-j0] {
			hsb[i] = 0.5 * math.Sin(bv)
		}
	}
}

// rematEncodeRows encodes rows [lo,hi) of xs through the rematerialized
// batch kernel: dimension blocks outer, with each block's projection rows
// regenerated ONCE into a cache-resident +-1 tile (alongside the phase
// tile) and swept by the exact stored-kernel inner loops — 4-row register
// groups, index-order accumulation. The tile regeneration is O(block)
// against the O(block x rows) dot work it feeds, so rematerialization
// costs a few percent while the encoder carries no resident projection.
// dst maps a row index to its destination slice (full OutDim width).
// Tile values are the same +-1.0 float64s a ProjSeededStored encoder
// holds, so outputs are bit-identical to it.
//
//hd:hotpath
func (e *Encoder) rematEncodeRows(xs [][]float64, lo, hi int, dst func(i int) []float64) {
	in := e.InDim
	g := e.Gamma
	var bTile, hsbTile [encodeDimBlock]float64
	wTile := getTile(encodeDimBlock * in)
	defer putTile(wTile)
	for j0 := 0; j0 < e.OutDim; j0 += encodeDimBlock {
		j1 := j0 + encodeDimBlock
		if j1 > e.OutDim {
			j1 = e.OutDim
		}
		e.phaseTile(j0, j1, bTile[:], hsbTile[:])
		e.materializeRowsInto(j0, j1, wTile)
		i := lo
		for ; i+4 <= hi; i += 4 {
			d0, d1, d2, d3 := dst(i), dst(i+1), dst(i+2), dst(i+3)
			x0, x1, x2, x3 := xs[i][:in], xs[i+1][:in], xs[i+2][:in], xs[i+3][:in]
			switch e.Kind {
			case Nonlinear:
				for j := j0; j < j1; j++ {
					row := wTile[(j-j0)*in : (j-j0)*in+in]
					var s0, s1, s2, s3 float64
					for k, wv := range row {
						s0 += wv * x0[k]
						s1 += wv * x1[k]
						s2 += wv * x2[k]
						s3 += wv * x3[k]
					}
					b := bTile[j-j0]
					hsb := hsbTile[j-j0]
					d0[j] = 0.5*math.Sin(2*(s0*g)+b) - hsb
					d1[j] = 0.5*math.Sin(2*(s1*g)+b) - hsb
					d2[j] = 0.5*math.Sin(2*(s2*g)+b) - hsb
					d3[j] = 0.5*math.Sin(2*(s3*g)+b) - hsb
				}
			case RFF:
				for j := j0; j < j1; j++ {
					row := wTile[(j-j0)*in : (j-j0)*in+in]
					var s0, s1, s2, s3 float64
					for k, wv := range row {
						s0 += wv * x0[k]
						s1 += wv * x1[k]
						s2 += wv * x2[k]
						s3 += wv * x3[k]
					}
					b := bTile[j-j0]
					d0[j] = math.Cos(s0*g + b)
					d1[j] = math.Cos(s1*g + b)
					d2[j] = math.Cos(s2*g + b)
					d3[j] = math.Cos(s3*g + b)
				}
			default:
				for j := j0; j < j1; j++ {
					row := wTile[(j-j0)*in : (j-j0)*in+in]
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
		for ; i < hi; i++ {
			d := dst(i)
			x := xs[i][:in]
			for j := j0; j < j1; j++ {
				row := wTile[(j-j0)*in : (j-j0)*in+in]
				var s float64
				for k, wv := range row {
					s += wv * x[k]
				}
				switch e.Kind {
				case Nonlinear:
					d[j] = 0.5*math.Sin(2*(s*g)+bTile[j-j0]) - hsbTile[j-j0]
				case RFF:
					d[j] = math.Cos(s*g + bTile[j-j0])
				default:
					d[j] = s * g
				}
			}
		}
	}
}

// rematEncodeBitsRange is the scalar rematerialized sign-bit kernel.
//
//hd:hotpath
func (e *Encoder) rematEncodeBitsRange(x []float64, lo, hi int, dst *hdc.BitVector) {
	g := e.Gamma
	for j := lo; j < hi; j++ {
		dst.Set(j-lo, signBit(e.Kind, e.rematDot(j, x)*g, e.phaseAt(j)) == 1)
	}
}

// rematEncodeBitsBatch is the rematerialized sign-bit batch kernel:
// dimension tiles outer, each tile's projection rows regenerated once
// into a +-1 tile (with phases alongside), then swept by the stored
// kernel's 4-row word-assembly loop plus a scalar row tail. No
// trigonometry on this path — signs come off the phase quadrants — and
// tile values match ProjSeededStored bit for bit.
//
//hd:hotpath
func (e *Encoder) rematEncodeBitsBatch(xs [][]float64, lo, hi int, dst []*hdc.BitVector) {
	in := e.InDim
	g := e.Gamma
	var bTile [encodeDimBlock]float64
	wTile := getTile(encodeDimBlock * in)
	defer putTile(wTile)
	for t0 := lo; t0 < hi; t0 += encodeDimBlock {
		t1 := t0 + encodeDimBlock
		if t1 > hi {
			t1 = hi
		}
		for j := t0; j < t1; j++ {
			bTile[j-t0] = e.phaseAt(j)
		}
		e.materializeRowsInto(t0, t1, wTile)
		r := 0
		for ; r+4 <= len(xs); r += 4 {
			x0, x1, x2, x3 := xs[r][:in], xs[r+1][:in], xs[r+2][:in], xs[r+3][:in]
			d0, d1, d2, d3 := dst[r], dst[r+1], dst[r+2], dst[r+3]
			for jStart := t0; jStart < t1; jStart += 64 {
				jEnd := jStart + 64
				if jEnd > t1 {
					jEnd = t1
				}
				var w0, w1, w2, w3 uint64
				// The kind switch sits at word granularity so the
				// per-component loops inline the phase-quadrant logic —
				// a shared sign helper with its own kind switch costs a
				// function call per (row, component) and dominates the
				// kernel.
				switch e.Kind {
				case Nonlinear:
					for j := jStart; j < jEnd; j++ {
						row := wTile[(j-t0)*in : (j-t0)*in+in]
						var s0, s1, s2, s3 float64
						for k, wv := range row {
							s0 += wv * x0[k]
							s1 += wv * x1[k]
							s2 += wv * x2[k]
							s3 += wv * x3[k]
						}
						b := bTile[j-t0]
						bit := uint64(1) << uint(j-jStart)
						p0, p1, p2, p3 := s0*g, s1*g, s2*g, s3*g
						if fc := phaseFrac(p0 + b); (phaseFrac(p0) > 0.5) == (fc > 0.25 && fc < 0.75) {
							w0 |= bit
						}
						if fc := phaseFrac(p1 + b); (phaseFrac(p1) > 0.5) == (fc > 0.25 && fc < 0.75) {
							w1 |= bit
						}
						if fc := phaseFrac(p2 + b); (phaseFrac(p2) > 0.5) == (fc > 0.25 && fc < 0.75) {
							w2 |= bit
						}
						if fc := phaseFrac(p3 + b); (phaseFrac(p3) > 0.5) == (fc > 0.25 && fc < 0.75) {
							w3 |= bit
						}
					}
				case RFF:
					for j := jStart; j < jEnd; j++ {
						row := wTile[(j-t0)*in : (j-t0)*in+in]
						var s0, s1, s2, s3 float64
						for k, wv := range row {
							s0 += wv * x0[k]
							s1 += wv * x1[k]
							s2 += wv * x2[k]
							s3 += wv * x3[k]
						}
						b := bTile[j-t0]
						bit := uint64(1) << uint(j-jStart)
						if fc := phaseFrac(s0*g + b); !(fc > 0.25 && fc < 0.75) {
							w0 |= bit
						}
						if fc := phaseFrac(s1*g + b); !(fc > 0.25 && fc < 0.75) {
							w1 |= bit
						}
						if fc := phaseFrac(s2*g + b); !(fc > 0.25 && fc < 0.75) {
							w2 |= bit
						}
						if fc := phaseFrac(s3*g + b); !(fc > 0.25 && fc < 0.75) {
							w3 |= bit
						}
					}
				default:
					for j := jStart; j < jEnd; j++ {
						row := wTile[(j-t0)*in : (j-t0)*in+in]
						var s0, s1, s2, s3 float64
						for k, wv := range row {
							s0 += wv * x0[k]
							s1 += wv * x1[k]
							s2 += wv * x2[k]
							s3 += wv * x3[k]
						}
						bit := uint64(1) << uint(j-jStart)
						if s0*g >= 0 {
							w0 |= bit
						}
						if s1*g >= 0 {
							w1 |= bit
						}
						if s2*g >= 0 {
							w2 |= bit
						}
						if s3*g >= 0 {
							w3 |= bit
						}
					}
				}
				wIdx := (jStart - lo) / 64
				d0.Words[wIdx] = w0
				d1.Words[wIdx] = w1
				d2.Words[wIdx] = w2
				d3.Words[wIdx] = w3
			}
		}
		for ; r < len(xs); r++ {
			x := xs[r][:in]
			d := dst[r]
			for j := t0; j < t1; j++ {
				row := wTile[(j-t0)*in : (j-t0)*in+in]
				var s float64
				for k, wv := range row {
					s += wv * x[k]
				}
				d.Set(j-lo, signBit(e.Kind, s*g, bTile[j-t0]) == 1)
			}
		}
	}
}
