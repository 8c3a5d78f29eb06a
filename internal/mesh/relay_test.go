package mesh

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

// TestRelayRecordsFramedIntoPool: a relay emits into one reused block and
// frames each record straight into the buffer the serving pump's allocator
// hands it. Every record must be byte-identical to framing a freshly
// emitted block (the same seed drives a twin recoder), live in a buffer
// from that allocator, and cost no allocation of its own.
func TestRelayRecordsFramedIntoPool(t *testing.T) {
	p := rlnc.Params{BlockCount: 12, BlockSize: 160}
	obj, err := rlnc.Split(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6}, p.SegmentSize()/8), p)
	if err != nil {
		t.Fatal(err)
	}
	seg := obj.Segments[0]
	for _, xor := range []bool{false, true} {
		mode, opts := netio.ModeDense, []rlnc.Option{rlnc.WithSeed(7)}
		if xor {
			mode, opts = netio.ModeSystematic, append(opts, rlnc.WithXorRecode())
		}
		rec, err := rlnc.NewRecoder(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := rlnc.NewRecoder(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		enc := rlnc.NewSystematicEncoder(seg, rand.New(rand.NewSource(8)))
		for i := 0; i < p.BlockCount; i++ {
			blk := enc.Block()
			if err := rec.Add(blk); err != nil {
				t.Fatal(err)
			}
			if err := twin.Add(blk); err != nil {
				t.Fatal(err)
			}
		}
		r := &Relay{
			id:       "relay-test",
			info:     netio.SessionInfo{Params: p, Segments: 1, Length: int64(p.SegmentSize()), Mode: mode},
			recoders: []*rlnc.Recoder{rec},
			upFetch:  netio.NewFetcher(nil),
		}
		src := (*relaySource)(r)

		handed := map[*byte]bool{}
		alloc := func(n int) []byte {
			b := bytes.Repeat([]byte{0xEE}, n) // stale bytes, as a recycled frame holds
			handed[unsafe.SliceData(b)] = true
			return b
		}
		recs := src.Records(0, 8, alloc)
		if len(recs) != 8 {
			t.Fatalf("xor=%v: %d records, want 8", xor, len(recs))
		}
		for i, got := range recs {
			blk, err := twin.Emit()
			if err != nil {
				t.Fatal(err)
			}
			want, err := netio.FrameRecord(blk, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("xor=%v record %d differs from framing a fresh emission", xor, i)
			}
			if !handed[unsafe.SliceData(got)] {
				t.Fatalf("xor=%v record %d not framed in an allocator buffer", xor, i)
			}
		}

		frame := make([]byte, 4+rlnc.XorWireSize(p)+p.BlockCount) // fits either encoding
		reuse := func(n int) []byte { return frame[:n] }
		if n := testing.AllocsPerRun(20, func() { src.Records(0, 8, reuse) }); n > 1 {
			t.Fatalf("xor=%v: %v allocations per 8-record batch, want at most the batch slice", xor, n)
		}
	}
}
