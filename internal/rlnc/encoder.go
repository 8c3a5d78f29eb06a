package rlnc

import (
	"fmt"
	"math/rand"

	"extremenc/internal/gf256"
)

// Encoder produces coded blocks from one source segment using independently
// and randomly chosen coefficients (paper Sec. 3). The paper's evaluation
// uses fully dense matrices with non-zero coefficients; a Density option
// below 1 produces sparse vectors for the sparse-coding ablation.
type Encoder struct {
	seg     *Segment
	rng     *rand.Rand
	density float64
}

// EncoderOption configures an Encoder.
type EncoderOption func(*Encoder)

// WithDensity sets the probability that each coefficient is non-zero.
// Density 1 (the default) draws every coefficient uniformly from [1, 255],
// matching the paper's fully dense benchmark matrices.
func WithDensity(d float64) EncoderOption {
	return func(e *Encoder) { e.density = d }
}

// NewEncoder returns an encoder over seg driven by rng (which determines the
// coefficient stream; pass a seeded source for reproducibility).
func NewEncoder(seg *Segment, rng *rand.Rand, opts ...EncoderOption) *Encoder {
	e := &Encoder{seg: seg, rng: rng, density: 1}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// NextCoeffs draws a fresh coefficient vector.
func (e *Encoder) NextCoeffs() []byte {
	return e.nextCoeffsInto(make([]byte, e.seg.params.BlockCount))
}

// nextCoeffsInto draws the next coefficient vector into coeffs (BlockCount
// bytes) and returns it.
func (e *Encoder) nextCoeffsInto(coeffs []byte) []byte {
	for {
		nonZero := false
		for i := range coeffs {
			if e.density >= 1 || e.rng.Float64() < e.density {
				coeffs[i] = byte(1 + e.rng.Intn(255))
				nonZero = true
			} else {
				coeffs[i] = 0
			}
		}
		if nonZero {
			return coeffs
		}
	}
}

// NextBlock draws random coefficients and returns the corresponding coded
// block.
func (e *Encoder) NextBlock() *CodedBlock {
	b, err := e.BlockFor(e.NextCoeffs())
	if err != nil {
		// NextCoeffs always produces a vector of the right length.
		panic(fmt.Sprintf("rlnc: internal encoder error: %v", err))
	}
	return b
}

// BlockFor returns the coded block for an explicit coefficient vector —
// Eq. 1: x = Σ c_i · b_i.
func (e *Encoder) BlockFor(coeffs []byte) (*CodedBlock, error) {
	p := e.seg.params
	if len(coeffs) != p.BlockCount {
		return nil, fmt.Errorf("%w: %d coefficients, want %d", ErrCoeffsMismatch, len(coeffs), p.BlockCount)
	}
	payload := make([]byte, p.BlockSize)
	EncodeInto(payload, e.seg, coeffs)
	return &CodedBlock{
		SegmentID: e.seg.id,
		Coeffs:    append([]byte(nil), coeffs...),
		Payload:   payload,
	}, nil
}

// EncodeInto computes Σ c_i·b_i over the segment's source blocks into dst
// (len ≥ BlockSize). It is the primitive shared by the encoder, the parallel
// workers and the simulators' reference checks. Internally it is the
// batch-size-1 case of the tiled batch kernel, so the zero-coefficient skip
// and fused source grouping live in one place (see encodebatch.go).
func EncodeInto(dst []byte, seg *Segment, coeffs []byte) {
	k := seg.params.BlockSize
	gf256.DotProduct(dst[:k], coeffs, seg.Blocks())
}

// Recoder regenerates fresh coded blocks from previously received ones
// without decoding — the capability that distinguishes network coding from
// end-to-end erasure codes ("can be recoded without affecting the guarantee
// to decode", Sec. 2). The recoded block's coefficients are re-expressed in
// terms of the original source blocks so downstream decoders are oblivious
// to the number of recoding hops.
type Recoder struct {
	params   Params
	segID    uint32
	received []*CodedBlock

	// probe tracks the rank of the received coefficient vectors so
	// linearly dependent input is dropped at the door: storing it would
	// waste memory and recombination work without enlarging the spanned
	// subspace. At most BlockCount blocks are ever held, so a relay's
	// memory is bounded no matter how long the upstream stream runs.
	probe [][]byte
	rank  int

	// rng, when set via WithSeed, drives Emit so the caller does not have
	// to thread a random source through every recombination.
	rng *rand.Rand

	// xorRecode (WithXorRecode) constrains emissions to GF(2)
	// recombinations through the XOR kernels: binary coefficients, no
	// table multiplies.
	xorRecode bool

	// Per-emission scratch, reused so EmitInto allocates nothing: the drawn
	// recombination (mix, or sel under xorRecode) and the coefficient and
	// payload rows it combines.
	mix          []byte
	sel          []bool
	crows, prows [][]byte
}

// NewRecoder returns a recoder for the given configuration. WithSeed gives
// it a private deterministic source so Emit can draw recombination
// coefficients without a caller-supplied rng; WithXorRecode constrains
// emissions to XOR-only recombinations.
func NewRecoder(p Params, opts ...Option) (*Recoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return &Recoder{params: p, probe: make([][]byte, p.BlockCount), rng: cfg.rng, xorRecode: cfg.xorRecode}, nil
}

// Add registers a received coded block as recoding input. Blocks that are
// linearly dependent with input already held are discarded (they cannot
// change any recombination); Rank reports the span. The block is cloned, so
// the caller may keep mutating or reusing b — a relay can feed Add straight
// from a receive loop that recycles its record storage.
//
// Binary blocks — a systematic sweep or GF(2) XOR repair stream, including
// records parsed from the compact XNC2 encoding — are ordinary input: their
// {0, 1} coefficients are valid GF(2^8) elements, so recombinations over
// them decode identically downstream. Emissions from a default recoder are
// dense regardless of input; under WithXorRecode binary input yields binary
// output.
func (r *Recoder) Add(b *CodedBlock) error {
	if err := b.Validate(r.params); err != nil {
		return err
	}
	if len(r.received) > 0 && b.SegmentID != r.segID {
		return wrongSegmentError(r.segID, b.SegmentID)
	}
	if !r.absorb(b.Coeffs) {
		return nil
	}
	r.segID = b.SegmentID
	r.received = append(r.received, b.Clone())
	return nil
}

// absorb reduces coeffs against the probe basis; it reports whether the
// vector was innovative (and if so, extends the basis).
func (r *Recoder) absorb(coeffs []byte) bool {
	row := append([]byte(nil), coeffs...)
	pivot := -1
	for c := range row {
		f := row[c]
		if f == 0 {
			continue
		}
		if pr := r.probe[c]; pr != nil {
			gf256.MulAddSlice(row, pr, f)
			continue
		}
		if pivot < 0 {
			pivot = c
		}
	}
	if pivot < 0 {
		return false
	}
	if pv := row[pivot]; pv != 1 {
		gf256.ScaleSlice(row, gf256.Inv(pv))
	}
	r.probe[pivot] = row
	r.rank++
	return true
}

// Count returns the number of innovative blocks held for recombination.
func (r *Recoder) Count() int { return len(r.received) }

// Rank returns the dimension of the subspace the recoder can emit from.
func (r *Recoder) Rank() int { return r.rank }

// Emit is NextBlock against the recoder's own random source (set with
// WithSeed). It fails with ErrNoBlocks when nothing has been received (a
// rank-0 recoder has no subspace to emit from — callers poll Rank and hold
// off until input arrives) and with ErrNoSeed when the recoder was built
// without one. Both failures leave the recoder unchanged and usable.
func (r *Recoder) Emit() (*CodedBlock, error) {
	out := &CodedBlock{}
	if err := r.EmitInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// EmitInto is the non-allocating Emit: it writes the next recombination
// into out, reusing out's Coeffs and Payload storage (grown only when too
// small). A relay pump emits every block into one CodedBlock and marshals
// it before the next call, so recoding costs no per-block garbage. Given
// the same random source it emits exactly the blocks Emit would.
func (r *Recoder) EmitInto(out *CodedBlock) error {
	if r.rng == nil {
		return fmt.Errorf("%w: build the recoder with WithSeed or call NextBlock", ErrNoSeed)
	}
	return r.emitInto(out, r.rng)
}

// NextBlock emits a random linear recombination of everything received.
// It fails with ErrNoBlocks when no input blocks are available. With a
// single held input the emission degrades to a scaled passthrough of that
// block (or, under WithXorRecode, the block verbatim) — still a valid coded
// block for the original source, so a relay can start serving after its
// very first upstream record.
func (r *Recoder) NextBlock(rng *rand.Rand) (*CodedBlock, error) {
	out := &CodedBlock{}
	if err := r.emitInto(out, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// emitInto draws one recombination from rng and writes it into out.
func (r *Recoder) emitInto(out *CodedBlock, rng *rand.Rand) error {
	if len(r.received) == 0 {
		return fmt.Errorf("%w: recoder received nothing", ErrNoBlocks)
	}
	out.SegmentID = r.segID
	out.Coeffs = resize(out.Coeffs, r.params.BlockCount)
	out.Payload = resize(out.Payload, r.params.BlockSize)
	if r.xorRecode {
		// GF(2) discipline: each input is either folded in whole (XOR) or
		// skipped. The selector is redrawn until non-zero, so the emission
		// is never the zero vector; the ops are the wide-word XOR kernels —
		// no multiply tables touched.
		sel := r.sel
		for {
			any := false
			sel = sel[:0]
			for range r.received {
				pick := rng.Intn(2) == 1
				sel = append(sel, pick)
				any = any || pick
			}
			if any {
				break
			}
		}
		r.sel = sel
		clear(out.Coeffs)
		clear(out.Payload)
		for i, in := range r.received {
			if sel[i] {
				gf256.XorSlice(out.Coeffs, in.Coeffs)
				gf256.XorSlice(out.Payload, in.Payload)
			}
		}
		return nil
	}
	// Draw the recombination coefficients first, then apply them through the
	// fused dot-product kernel: both the coefficient and payload rows are
	// consumed four sources per destination pass.
	cs, crows, prows := r.mix[:0], r.crows[:0], r.prows[:0]
	for _, in := range r.received {
		cs = append(cs, byte(1+rng.Intn(255)))
		crows = append(crows, in.Coeffs)
		prows = append(prows, in.Payload)
	}
	r.mix, r.crows, r.prows = cs, crows, prows
	gf256.DotProduct(out.Coeffs, cs, crows)
	gf256.DotProduct(out.Payload, cs, prows)
	return nil
}

// resize returns b resliced to n bytes, reallocated only when its capacity
// is short. The contents are unspecified.
func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
