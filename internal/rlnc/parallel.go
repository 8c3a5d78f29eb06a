package rlnc

import (
	"context"
	"fmt"
	"math/rand"
)

// EncodeMode selects how a multi-worker encoder partitions work — the
// comparison of paper Sec. 5.3 / Fig. 10.
type EncodeMode int

const (
	// PartitionedBlock splits every coded block's payload across all
	// workers, so each worker owns a contiguous column stripe (the original
	// IWQoS'07 scheme: on-demand generation). The stripe work for the whole
	// batch runs under a single dispatch: worker w computes its columns of
	// every coded block in one tiled pass.
	PartitionedBlock EncodeMode = iota + 1
	// FullBlock assigns whole coded blocks to workers (the paper's new
	// streaming-server scheme: generate many, buffer, deliver on demand).
	FullBlock
)

func (m EncodeMode) String() string {
	switch m {
	case PartitionedBlock:
		return "partitioned-block"
	case FullBlock:
		return "full-block"
	default:
		return fmt.Sprintf("EncodeMode(%d)", int(m))
	}
}

// ParallelEncoder produces batches of coded blocks with the persistent
// worker pool. Output is deterministic for a given seed regardless of worker
// count or scheduling: the coefficient matrix is drawn up front and workers
// write disjoint regions.
type ParallelEncoder struct {
	workers int
	mode    EncodeMode
	pool    *Pool
}

// NewParallelEncoder returns an encoder with the given worker count and
// partitioning mode. Work executes on the process-wide SharedPool; workers
// only bounds how many concurrent stripes this encoder dispatches.
func NewParallelEncoder(workers int, mode EncodeMode) (*ParallelEncoder, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrWorkerCount, workers)
	}
	if mode != PartitionedBlock && mode != FullBlock {
		return nil, fmt.Errorf("%w: %d", ErrEncodeMode, int(mode))
	}
	return &ParallelEncoder{workers: workers, mode: mode, pool: SharedPool()}, nil
}

// Encode produces count coded blocks from seg using coefficients drawn from
// a rand source seeded with seed.
func (pe *ParallelEncoder) Encode(seg *Segment, count int, seed int64) ([]*CodedBlock, error) {
	return pe.EncodeReuse(nil, seg, count, seed)
}

// EncodeReuse is Encode into reusable storage: the blocks of reuse are
// overwritten in place, keeping their Coeffs and Payload buffers, and only
// missing blocks are allocated. It returns count blocks that share reuse's
// storage — a serving pump frames each round's blocks before the next call,
// so it encodes every round into the same memory. The blocks match
// Encode's for the same seed.
func (pe *ParallelEncoder) EncodeReuse(reuse []*CodedBlock, seg *Segment, count int, seed int64) ([]*CodedBlock, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBlockCountInvalid, count)
	}
	// Same stage as EncodeBatchInto: one batch-encode call, whichever entry
	// point produced it (the workers call encodeBatchRange directly, so the
	// span is never double-counted).
	defer stageEncodeBatch.Start().End()
	p := seg.Params()
	rng := rand.New(rand.NewSource(seed))
	enc := NewEncoder(seg, rng)
	blocks := reuse[:0]
	for i := 0; i < count; i++ {
		var b *CodedBlock
		if i < len(reuse) {
			b = reuse[i]
		} else {
			b = new(CodedBlock)
		}
		b.SegmentID = seg.ID()
		b.Coeffs = enc.nextCoeffsInto(resize(b.Coeffs, p.BlockCount))
		b.Payload = resize(b.Payload, p.BlockSize) // encodeBatchRange clears it
		blocks = append(blocks, b)
	}

	switch pe.mode {
	case FullBlock:
		pe.encodeFullBlock(seg, blocks)
	case PartitionedBlock:
		pe.encodePartitioned(seg, blocks)
	}
	return blocks, nil
}

// encodeFullBlock hands whole coded blocks to workers round-robin; each
// worker batch-encodes all of its blocks in one tiled pass using its scratch
// row views.
func (pe *ParallelEncoder) encodeFullBlock(seg *Segment, blocks []*CodedBlock) {
	srcs := seg.Blocks()
	k := seg.Params().BlockSize
	stride := pe.workers
	pe.pool.Dispatch(stride, func(w int, s *Scratch) {
		cnt := 0
		for i := w; i < len(blocks); i += stride {
			cnt++
		}
		if cnt == 0 {
			return
		}
		dsts, coeffs := s.rowViews(cnt)
		j := 0
		for i := w; i < len(blocks); i += stride {
			dsts[j] = blocks[i].Payload
			coeffs[j] = blocks[i].Coeffs
			j++
		}
		encodeBatchRange(dsts, srcs, coeffs, 0, k)
	})
}

// encodePartitioned gives every worker a contiguous column stripe of all
// coded blocks. Unlike the seed implementation — which launched a fresh
// goroutine set per coded block — the whole batch runs under one dispatch:
// worker w clears and accumulates columns [w·stripe, (w+1)·stripe) of every
// payload in a single tiled pass.
func (pe *ParallelEncoder) encodePartitioned(seg *Segment, blocks []*CodedBlock) {
	srcs := seg.Blocks()
	k := seg.Params().BlockSize
	stripe := (k + pe.workers - 1) / pe.workers
	dsts := make([][]byte, len(blocks))
	coeffs := make([][]byte, len(blocks))
	for i, b := range blocks {
		dsts[i] = b.Payload
		coeffs[i] = b.Coeffs
	}
	pe.pool.Dispatch(pe.workers, func(w int, _ *Scratch) {
		lo := w * stripe
		if lo >= k {
			return
		}
		hi := min(lo+stripe, k)
		encodeBatchRange(dsts, srcs, coeffs, lo, hi)
	})
}

// DecodeSegmentsParallel batch-decodes independent segments with the given
// worker count — the paper's parallel multi-segment decoding (Sec. 5.2):
// each worker owns whole segments, so no cross-worker synchronization is
// needed, and runs the explicit two-stage pipeline (twostage.go) against its
// own warm scratch. blocksPerSegment[i] must span segment i. Work executes
// on the process-wide SharedPool.
//
// Cancelling ctx stops the sweep at segment granularity: workers finish the
// segment in hand, remaining segments are skipped, and the call returns
// ctx.Err(). Pass context.Background() when cancellation is not needed.
func DecodeSegmentsParallel(ctx context.Context, p Params, blocksPerSegment [][]*CodedBlock, workers int) ([]*Segment, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrWorkerCount, workers)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	segs := make([]*Segment, len(blocksPerSegment))
	errs := make([]error, len(blocksPerSegment))
	SharedPool().Dispatch(workers, func(w int, s *Scratch) {
		for i := w; i < len(blocksPerSegment); i += workers {
			if ctx.Err() != nil {
				return
			}
			segs[i], errs[i] = decodeTwoStageWith(s, p, blocksPerSegment[i])
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rlnc: segment %d: %w", i, err)
		}
	}
	return segs, nil
}
