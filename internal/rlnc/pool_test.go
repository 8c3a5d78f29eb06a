package rlnc

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestPoolDispatchRunsEveryTask(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p.Workers())
	}
	for _, n := range []int{1, 2, 3, 7, 64} {
		seen := make([]int32, n)
		p.Dispatch(n, func(i int, _ *Scratch) {
			atomic.AddInt32(&seen[i], 1)
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: task %d ran %d times, want 1", n, i, c)
			}
		}
	}
}

func TestPoolScratchReuse(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	// With one worker every task sees the same scratch; Bytes must grow and
	// then keep serving from the grown backing array.
	var caps []int
	p.Dispatch(2, func(i int, s *Scratch) {
		b := s.Bytes(64)
		caps = append(caps, cap(b))
	})
	p.Dispatch(2, func(i int, s *Scratch) {
		b := s.Bytes(1024)
		caps = append(caps, cap(b))
	})
	if len(caps) != 4 {
		t.Fatalf("ran %d tasks, want 4", len(caps))
	}
	if caps[0] < 64 || caps[2] < 1024 {
		t.Fatalf("scratch did not grow: caps %v", caps)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

// TestParallelEncoderDeterministicAcrossWorkerCounts pins the hard
// requirement: for a fixed seed, the coded output is byte-identical no
// matter how many workers or which mode is used.
func TestParallelEncoderDeterministicAcrossWorkerCounts(t *testing.T) {
	p := Params{BlockCount: 24, BlockSize: 130} // odd size: exercises stripe tails
	rng := rand.New(rand.NewSource(21))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(9, p, data)
	if err != nil {
		t.Fatal(err)
	}

	const count, seed = 17, int64(77)
	var ref []*CodedBlock
	for _, mode := range []EncodeMode{FullBlock, PartitionedBlock} {
		for _, workers := range []int{1, 2, 3, 8, 32} {
			pe, err := NewParallelEncoder(workers, mode)
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := pe.Encode(seg, count, seed)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = blocks
				continue
			}
			for i := range blocks {
				if !bytes.Equal(blocks[i].Coeffs, ref[i].Coeffs) {
					t.Fatalf("%v workers=%d: block %d coeffs diverge", mode, workers, i)
				}
				if !bytes.Equal(blocks[i].Payload, ref[i].Payload) {
					t.Fatalf("%v workers=%d: block %d payload diverges", mode, workers, i)
				}
			}
		}
	}
}

// TestParallelEncoderReuse exercises the persistent pool across repeated
// Encode calls from the same encoder (the streaming-server call pattern the
// pool exists for).
func TestParallelEncoderReuse(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 256}
	rng := rand.New(rand.NewSource(22))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(3, p, data)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewParallelEncoder(4, FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		blocks, err := pe.Encode(seg, 12, int64(round))
		if err != nil {
			t.Fatal(err)
		}
		// Every round must decode back to the source segment.
		dec, err := NewBatchDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if err := dec.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got.Data(), seg.Data()) {
			t.Fatalf("round %d: decoded data diverges", round)
		}
	}
}

// TestParallelEncoderEncodeReuse: encoding into the previous round's blocks
// yields exactly Encode's blocks for each seed, in the same storage, for a
// batch that shrinks and then grows again.
func TestParallelEncoderEncodeReuse(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 200}
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(4, p, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []EncodeMode{FullBlock, PartitionedBlock} {
		pe, err := NewParallelEncoder(3, mode)
		if err != nil {
			t.Fatal(err)
		}
		var reuse []*CodedBlock
		for round, count := range []int{9, 9, 4, 12} {
			want, err := pe.Encode(seg, count, int64(round))
			if err != nil {
				t.Fatal(err)
			}
			got, err := pe.EncodeReuse(reuse, seg, count, int64(round))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != count {
				t.Fatalf("%v round %d: %d blocks, want %d", mode, round, len(got), count)
			}
			for i := range got {
				if got[i].SegmentID != want[i].SegmentID || !bytes.Equal(got[i].Coeffs, want[i].Coeffs) || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("%v round %d: block %d differs from Encode", mode, round, i)
				}
				if i < len(reuse) && (got[i] != reuse[i] || &got[i].Payload[0] != &reuse[i].Payload[0]) {
					t.Fatalf("%v round %d: block %d not encoded into the reused storage", mode, round, i)
				}
			}
			reuse = got
		}
	}
}
