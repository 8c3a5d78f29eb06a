package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"net"
	"sync"
	"testing"
	"unsafe"

	"extremenc/internal/gf256"
	"extremenc/internal/rlnc"
)

// The record path marshals each block once, straight into its frame buffer.
// These tests pin it against the two-step form it replaced (marshal into
// one buffer, then copy behind a length prefix in a second), check that
// every served frame returns to the server's pool, and that the fetcher's
// reused read buffer never leaks into blocks a record tap keeps.

// legacyFrame is the replaced record path, written out from the wire
// formats: the XNC1 or XNC2 body built in a zeroed buffer, then copied
// behind its length prefix.
func legacyFrame(b *rlnc.CodedBlock, xor bool) []byte {
	n, k := len(b.Coeffs), len(b.Payload)
	coeffs := b.Coeffs
	magic := "XNC1"
	if xor {
		magic = "XNC2"
		coeffs = make([]byte, (n+7)/8)
		for i, c := range b.Coeffs {
			if c != 0 {
				coeffs[i/8] |= 1 << (i % 8)
			}
		}
	}
	body := make([]byte, 16+len(coeffs)+k+4)
	copy(body, magic)
	binary.BigEndian.PutUint32(body[4:], b.SegmentID)
	binary.BigEndian.PutUint32(body[8:], uint32(n))
	binary.BigEndian.PutUint32(body[12:], uint32(k))
	copy(body[16:], coeffs)
	copy(body[16+len(coeffs):], b.Payload)
	binary.BigEndian.PutUint32(body[len(body)-4:], crc32.ChecksumIEEE(body[:len(body)-4]))
	rec := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(rec, uint32(len(body)))
	copy(rec[4:], body)
	return rec
}

// dirtyAlloc hands out buffers full of stale bytes, as a recycled frame
// would be, and remembers the last one.
type dirtyAlloc struct{ last []byte }

func (d *dirtyAlloc) alloc(n int) []byte {
	d.last = bytes.Repeat([]byte{0xFF}, n)
	return d.last
}

func TestFrameRecordMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, p := range []rlnc.Params{{BlockCount: 1, BlockSize: 1}, {BlockCount: 13, BlockSize: 100}, {BlockCount: 128, BlockSize: 4096}} {
		seg := randomBlock(rng, p, 7)
		dense, binaryBlk, unit := seg.Clone(), seg.Clone(), seg.Clone()
		for i := range binaryBlk.Coeffs {
			binaryBlk.Coeffs[i] = byte(rng.Intn(2))
			unit.Coeffs[i] = 0
		}
		dense.Coeffs[0] = 0xA7
		unit.Coeffs[p.BlockCount-1] = 1
		for _, tc := range []struct {
			name string
			blk  *rlnc.CodedBlock
			mode WireMode
			xor  bool
		}{
			{"dense/ModeDense", dense, ModeDense, false},
			{"binary/ModeDense", binaryBlk, ModeDense, false},
			{"dense/ModeSystematic", dense, ModeSystematic, false},
			{"binary/ModeSystematic", binaryBlk, ModeSystematic, true},
			{"unit/ModeSystematic", unit, ModeSystematic, true},
		} {
			want := legacyFrame(tc.blk, tc.xor)
			var d dirtyAlloc
			got, err := FrameRecordWith(tc.blk, tc.mode, d.alloc)
			if err != nil {
				t.Fatalf("%v %s: %v", p, tc.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v %s: pooled frame differs from marshal-then-copy", p, tc.name)
			}
			if unsafe.SliceData(got) != unsafe.SliceData(d.last) {
				t.Fatalf("%v %s: frame not built in the allocated buffer", p, tc.name)
			}
			if plain, err := FrameRecord(tc.blk, tc.mode); err != nil || !bytes.Equal(plain, want) {
				t.Fatalf("%v %s: FrameRecord differs from marshal-then-copy (err %v)", p, tc.name, err)
			}
			frame := frameRecord
			if tc.mode == ModeSystematic {
				frame = frameSystematicRecord
			}
			if inner, err := frame(tc.blk, d.alloc); err != nil || !bytes.Equal(inner, want) {
				t.Fatalf("%v %s: pump framing differs from marshal-then-copy (err %v)", p, tc.name, err)
			}
		}
	}
}

func randomBlock(rng *rand.Rand, p rlnc.Params, seg uint32) *rlnc.CodedBlock {
	b := &rlnc.CodedBlock{SegmentID: seg, Coeffs: make([]byte, p.BlockCount), Payload: make([]byte, p.BlockSize)}
	rng.Read(b.Coeffs)
	rng.Read(b.Payload)
	return b
}

// TestServerRecyclesSourceFrames: frames a source builds with the alloc its
// Records call receives come back through the server's pool, so a stream of
// fetches reuses a working set of buffers — about the queued and in-flight
// frames — instead of one per record. The stream is long against that
// working set, so the bound holds even under -race, where sync.Pool drops a
// quarter of its Puts on purpose.
func TestServerRecyclesSourceFrames(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 8*p.SegmentSize(), 83)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	src := &allocTracking{RecordSource: newPoolSource(t, obj, 2*p.BlockCount), seen: map[*byte]bool{}}
	srv, err := NewSourceServer(src)
	if err != nil {
		t.Fatal(err)
	}
	l := startPipeServer(t, srv)
	const fetches = 8
	for i := 0; i < fetches; i++ {
		payload, _, err := Fetch(context.Background(), l.Dial())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, media) {
			t.Fatal("payload differs")
		}
	}
	srv.Shutdown()
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.records < fetches*len(obj.Segments)*p.BlockCount {
		t.Fatalf("only %d records framed", src.records)
	}
	if distinct := len(src.seen); distinct > src.records/2 {
		t.Fatalf("%d distinct frame buffers for %d records: frames are not recycled", distinct, src.records)
	}
	t.Logf("%d records framed in %d distinct buffers", src.records, len(src.seen))
}

// allocTracking wraps a source and records which buffers its frames use.
type allocTracking struct {
	RecordSource
	mu      sync.Mutex
	records int
	seen    map[*byte]bool
}

func (a *allocTracking) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	recs := a.RecordSource.Records(seg, batch, alloc)
	a.mu.Lock()
	for _, r := range recs {
		a.seen[unsafe.SliceData(r)] = true
	}
	a.records += len(recs)
	a.mu.Unlock()
	return recs
}

// TestRecordTapRetainsIntactBlocks: the fetcher reads every record of a
// session into one buffer and, without a tap, reuses one block, so a tap
// that keeps the blocks it is handed must still hold each intact after every
// later record has been read: the coefficients it was handed, and a payload
// equal to their weighted sum of the source blocks.
func TestRecordTapRetainsIntactBlocks(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 300}
	media := testMedia(t, 3*p.SegmentSize()-41, 85)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []WireMode{ModeDense, ModeSystematic} {
		srv, err := NewServer(media, p, WithWireMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		l := startPipeServer(t, srv)
		var kept []*rlnc.CodedBlock
		var handed [][]byte // each kept block's coefficients when handed over
		conn := l.Dial()
		f := NewFetcher(func(context.Context) (net.Conn, error) { return conn, nil },
			WithMaxAttempts(1),
			WithRecordTap(func(b *rlnc.CodedBlock) {
				kept = append(kept, b)
				handed = append(handed, bytes.Clone(b.Coeffs))
			}))
		res, err := f.Fetch(context.Background())
		conn.Close()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !bytes.Equal(res.Payload, media) {
			t.Fatalf("%v: payload differs", mode)
		}
		if len(kept) < len(obj.Segments)*p.BlockCount {
			t.Fatalf("%v: tap kept %d blocks", mode, len(kept))
		}
		want := make([]byte, p.BlockSize)
		for i, b := range kept {
			if !bytes.Equal(b.Coeffs, handed[i]) {
				t.Fatalf("%v: kept block %d was overwritten by a later record", mode, i)
			}
			gf256.DotProduct(want, b.Coeffs, obj.Segments[b.SegmentID].Blocks())
			if !bytes.Equal(b.Payload, want) {
				t.Fatalf("%v: kept block %d (segment %d) no longer matches its coefficients", mode, i, b.SegmentID)
			}
		}
	}
}
