package rlnc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestRecodeThenDecodeDifferential is the recoder's differential gate:
// decoding a recoded stream must reconstruct the source byte-identically to
// decoding the encoder's blocks directly — the "oblivious to recoding hops"
// property that lets a relay mesh interpose freely.
func TestRecodeThenDecodeDifferential(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 96}
	seg := randomSegment(t, 3, p, 101)
	rng := rand.New(rand.NewSource(102))
	enc := NewEncoder(seg, rng)

	// Direct decode of the encoder's own blocks.
	direct, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecoder(p, WithSeed(103))
	if err != nil {
		t.Fatal(err)
	}
	for !direct.Ready() {
		b := enc.NextBlock()
		if _, err := direct.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := rec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Segment()
	if err != nil {
		t.Fatal(err)
	}

	// Decode from recoded emissions only.
	viaRelay, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !viaRelay.Ready() {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(p); err != nil {
			t.Fatalf("emitted block invalid: %v", err)
		}
		if _, err := viaRelay.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if viaRelay.Received() > 20*p.BlockCount {
			t.Fatal("recoded stream failed to reach full rank")
		}
	}
	got, err := viaRelay.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || !got.Equal(seg) {
		t.Fatal("recode-then-decode differs from direct decode")
	}
}

// TestRecoderRankPreservation: the recoder's rank must track the span of its
// input exactly — shuffled arrival order and linearly dependent duplicates
// must not inflate it, and its emissions must span exactly that subspace
// (a downstream decoder caps at the recoder's rank, never above).
func TestRecoderRankPreservation(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 48}
	seg := randomSegment(t, 7, p, 201)
	rng := rand.New(rand.NewSource(202))
	enc := NewEncoder(seg, rng)

	const partial = 7 // hold the recoder below full rank
	blocks := make([]*CodedBlock, 0, partial)
	for i := 0; i < partial; i++ {
		blocks = append(blocks, enc.NextBlock())
	}
	rec, err := NewRecoder(p, WithSeed(203))
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled arrival plus every block a second time (dependent).
	order := rng.Perm(partial)
	for _, i := range order {
		if err := rec.Add(blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range order {
		if err := rec.Add(blocks[i].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Rank() != partial {
		t.Fatalf("recoder rank = %d, want %d (dependent input must not count)", rec.Rank(), partial)
	}
	if rec.Count() != partial {
		t.Fatalf("recoder holds %d blocks, want %d (dependent input must not be stored)", rec.Count(), partial)
	}

	// Emissions span exactly the partial subspace: the downstream decoder
	// reaches rank `partial` and no further.
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30*p.BlockCount; i++ {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Rank() != partial {
		t.Fatalf("decoder rank from partial recoder = %d, want exactly %d", dec.Rank(), partial)
	}
}

// TestRecoderEmitEmpty pins the defined behavior of an empty (rank-0)
// recoder: Emit and NextBlock fail with ErrNoBlocks, a seedless recoder's
// Emit fails with ErrNoSeed, and both leave the recoder usable afterwards.
func TestRecoderEmitEmpty(t *testing.T) {
	p := testParams()
	rec, err := NewRecoder(p, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Emit(); !errors.Is(err, ErrNoBlocks) {
		t.Fatalf("Emit on empty recoder: err = %v, want ErrNoBlocks", err)
	}
	if _, err := rec.NextBlock(rand.New(rand.NewSource(2))); !errors.Is(err, ErrNoBlocks) {
		t.Fatalf("NextBlock on empty recoder: err = %v, want ErrNoBlocks", err)
	}
	seedless, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedless.Emit(); !errors.Is(err, ErrNoSeed) {
		t.Fatalf("Emit on seedless recoder: err = %v, want ErrNoSeed", err)
	}

	// The failures must not wedge the recoder: after one Add it emits.
	seg := randomSegment(t, 0, p, 3)
	enc := NewEncoder(seg, rand.New(rand.NewSource(4)))
	if err := rec.Add(enc.NextBlock()); err != nil {
		t.Fatal(err)
	}
	b, err := rec.Emit()
	if err != nil {
		t.Fatalf("Emit after recovery: %v", err)
	}
	// Single-input passthrough: the emission must still be a valid block
	// inside the 1-dimensional span.
	if err := b.Validate(p); err != nil {
		t.Fatal(err)
	}
}

// TestRecoderSystematicInputs feeds a recoder the full systematic + XOR
// repair + dense tail schedule — including blocks round-tripped through the
// compact XNC2 wire encoding — and requires the recoded stream to decode
// byte-identically. This pins the defined behavior for relays sitting below
// a ModeSystematic origin.
func TestRecoderSystematicInputs(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 64}
	seg := randomSegment(t, 5, p, 301)
	rng := rand.New(rand.NewSource(302))
	se := NewSystematicEncoder(seg, rng)

	rec, err := NewRecoder(p, WithSeed(303))
	if err != nil {
		t.Fatal(err)
	}
	// One full schedule: n verbatim + repair + dense tail. Binary blocks
	// take the XNC2 marshal/unmarshal round trip first, exactly as a relay
	// would receive them off the wire.
	total := p.BlockCount + se.XorRepair() + se.DenseTail()
	for i := 0; i < total; i++ {
		b := se.Block()
		if b.IsBinary() {
			wire, err := b.MarshalBinaryXor()
			if err != nil {
				t.Fatal(err)
			}
			var rt CodedBlock
			if err := rt.UnmarshalRecord(wire); err != nil {
				t.Fatal(err)
			}
			b = &rt
		}
		if err := rec.Add(b); err != nil {
			t.Fatalf("Add systematic block %d: %v", i, err)
		}
	}
	if rec.Rank() != p.BlockCount {
		t.Fatalf("recoder rank = %d after full systematic schedule, want %d", rec.Rank(), p.BlockCount)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if dec.Received() > 20*p.BlockCount {
			t.Fatal("recoded systematic stream failed to reach full rank")
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("recoded systematic stream decoded to different bytes")
	}
}

// TestRecoderXorRecode: under WithXorRecode the recoder emits GF(2)
// recombinations — binary input yields binary (XNC2-framable) output — and
// the XOR-only stream still decodes byte-identically. With a dense input in
// the mix the output stops being binary but stays decodable.
func TestRecoderXorRecode(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 64}
	seg := randomSegment(t, 9, p, 401)
	rng := rand.New(rand.NewSource(402))
	se := NewSystematicEncoder(seg, rng, WithDenseTail(0))

	rec, err := NewRecoder(p, WithSeed(403), WithXorRecode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.BlockCount+se.XorRepair(); i++ {
		if err := rec.Add(se.Block()); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsBinary() {
			t.Fatal("XOR recode over binary input emitted a non-binary block")
		}
		// Binary emissions must survive the compact wire encoding.
		if wire, err := b.MarshalBinaryXor(); err != nil {
			t.Fatalf("XNC2 marshal of XOR emission: %v", err)
		} else if len(wire) != XorWireSize(p) {
			t.Fatalf("XNC2 emission wire size = %d, want %d", len(wire), XorWireSize(p))
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if dec.Received() > 40*p.BlockCount {
			t.Fatal("XOR-recoded stream failed to reach full rank")
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("XOR-recoded stream decoded to different bytes")
	}

	// A dense block in the mix: emissions may stop being binary but the
	// combination stays valid and decodable.
	denseRec, err := NewRecoder(p, WithSeed(404), WithXorRecode())
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(seg, rng)
	se.Reset()
	for i := 0; i < p.BlockCount; i++ {
		if err := denseRec.Add(se.Block()); err != nil {
			t.Fatal(err)
		}
	}
	if err := denseRec.Add(enc.NextBlock()); err != nil {
		t.Fatal(err)
	}
	dec2, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec2.Ready() {
		b, err := denseRec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(p); err != nil {
			t.Fatalf("mixed XOR emission invalid: %v", err)
		}
		if _, err := dec2.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if dec2.Received() > 40*p.BlockCount {
			t.Fatal("mixed XOR-recoded stream failed to reach full rank")
		}
	}
	got2, err := dec2.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(seg) {
		t.Fatal("mixed XOR-recoded stream decoded to different bytes")
	}
}

// TestRecoderClonesInput: Add must clone — a caller that reuses its block
// storage (the systematic encoder's zero-alloc emit, a receive loop's
// scratch record) must not corrupt blocks the recoder already holds.
func TestRecoderClonesInput(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	seg := randomSegment(t, 2, p, 501)
	enc := NewEncoder(seg, rand.New(rand.NewSource(502)))

	rec, err := NewRecoder(p, WithSeed(503))
	if err != nil {
		t.Fatal(err)
	}
	b := enc.NextBlock()
	coeffs := append([]byte(nil), b.Coeffs...)
	payload := append([]byte(nil), b.Payload...)
	if err := rec.Add(b); err != nil {
		t.Fatal(err)
	}
	// Trash the caller's copy.
	for i := range b.Coeffs {
		b.Coeffs[i] ^= 0xFF
	}
	for i := range b.Payload {
		b.Payload[i] ^= 0xAA
	}
	got, err := rec.Emit()
	if err != nil {
		t.Fatal(err)
	}
	// With a single held input the emission is a scaled copy: its coeffs
	// must be proportional to the original, never to the trashed storage.
	// Check by comparing the coefficient ratio at every non-zero position.
	var ratio byte
	for i := range got.Coeffs {
		if coeffs[i] == 0 {
			if got.Coeffs[i] != 0 {
				t.Fatal("emission has support outside the held block: mutation leaked in")
			}
			continue
		}
		if ratio == 0 {
			ratio = gfDiv(t, got.Coeffs[i], coeffs[i])
			continue
		}
		if gfDiv(t, got.Coeffs[i], coeffs[i]) != ratio {
			t.Fatal("emission is not a scalar multiple of the original block: mutation leaked in")
		}
	}
	_ = payload // payload proportionality follows from the decode gates above
	if bytes.Equal(got.Coeffs, b.Coeffs) {
		t.Fatal("emission equals the trashed caller storage")
	}
}

// gfDiv is a tiny GF(2^8) division helper over the package's arithmetic,
// used only to verify scalar proportionality in tests.
func gfDiv(t *testing.T, a, b byte) byte {
	t.Helper()
	if b == 0 {
		t.Fatal("division by zero in proportionality check")
	}
	// Brute-force: find q with q·b == a, against the reference multiply the
	// package tests already define (rlnc_test.go).
	for q := 0; q < 256; q++ {
		if mulRef(byte(q), b) == a {
			return byte(q)
		}
	}
	t.Fatal("no quotient found: not a field?")
	return 0
}

// FuzzRecoder drives Add/Emit with adversarial block bytes: arbitrary
// coefficient and payload mutations, hostile segment IDs, and interleaved
// emissions. The recoder must never panic, never exceed rank n, never store
// dependent input, and every successful emission must validate.
func FuzzRecoder(f *testing.F) {
	p := Params{BlockCount: 4, BlockSize: 8}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2))
	f.Add([]byte{255, 255, 255, 255}, uint8(0))
	f.Add([]byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, nBlocks uint8) {
		rec, err := NewRecoder(p, WithSeed(1), WithXorRecode())
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewRecoder(p, WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		next := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				if off < len(raw) {
					out[i] = raw[off]
					off++
				}
			}
			return out
		}
		for i := 0; i < int(nBlocks%16); i++ {
			b := &CodedBlock{
				SegmentID: uint32(next(1)[0]) % 3,
				Coeffs:    next(p.BlockCount),
				Payload:   next(p.BlockSize),
			}
			for _, r := range []*Recoder{rec, dense} {
				err := r.Add(b)
				if r.Rank() > p.BlockCount {
					t.Fatalf("rank %d exceeds block count %d", r.Rank(), p.BlockCount)
				}
				if r.Count() != r.Rank() {
					t.Fatalf("held %d blocks at rank %d: dependent input stored", r.Count(), r.Rank())
				}
				out, eerr := r.Emit()
				if err == nil && r.Rank() > 0 && eerr != nil {
					t.Fatalf("Emit failed at rank %d: %v", r.Rank(), eerr)
				}
				if r.Rank() == 0 && !errors.Is(eerr, ErrNoBlocks) {
					t.Fatalf("Emit at rank 0: err = %v, want ErrNoBlocks", eerr)
				}
				if out != nil {
					if verr := out.Validate(p); verr != nil {
						t.Fatalf("emitted block invalid: %v", verr)
					}
				}
			}
		}
	})
}

// TestRecoderEmitIntoMatchesEmit: the non-allocating emit draws the same
// recombinations as Emit from the same seed, dense and XOR-only, into one
// reused block — and allocates nothing once that block has its storage.
func TestRecoderEmitIntoMatchesEmit(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 200}
	seg := randomSegment(t, 4, p, 111)
	for _, xor := range []bool{false, true} {
		opts := []Option{WithSeed(112)}
		if xor {
			opts = append(opts, WithXorRecode())
		}
		a, err := NewRecoder(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRecoder(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystematicEncoder(seg, rand.New(rand.NewSource(113)))
		for i := 0; i < p.BlockCount; i++ {
			blk := sys.Block()
			if err := a.Add(blk); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(blk); err != nil {
				t.Fatal(err)
			}
		}
		var out CodedBlock
		for i := 0; i < 50; i++ {
			want, err := a.Emit()
			if err != nil {
				t.Fatal(err)
			}
			if err := b.EmitInto(&out); err != nil {
				t.Fatal(err)
			}
			if out.SegmentID != want.SegmentID || !bytes.Equal(out.Coeffs, want.Coeffs) || !bytes.Equal(out.Payload, want.Payload) {
				t.Fatalf("xor=%v emission %d: EmitInto differs from Emit", xor, i)
			}
		}
		if n := testing.AllocsPerRun(20, func() { b.EmitInto(&out) }); n != 0 {
			t.Fatalf("xor=%v: EmitInto allocates %v times per emission", xor, n)
		}
	}
	unseeded, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := unseeded.EmitInto(&CodedBlock{}); !errors.Is(err, ErrNoSeed) {
		t.Fatalf("unseeded EmitInto = %v, want ErrNoSeed", err)
	}
}
