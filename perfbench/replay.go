package main

import (
	"math/rand"
	"time"

	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

// replayFloor is the least total time each replay accumulates, repeating
// the captured stream as often as needed.
const replayFloor = 150 * time.Millisecond

// timed repeats one pass until replayFloor has elapsed and returns the
// measured time and the number of operations the passes reported.
func timed(pass func() (time.Duration, int)) (time.Duration, int) {
	var total time.Duration
	ops := 0
	for total < replayFloor {
		d, n := pass()
		if n == 0 {
			break
		}
		total += d
		ops += n
	}
	return total, ops
}

func perOp(d time.Duration, ops int, unit time.Duration) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(ops)
}

// absorbReplay feeds the captured stream through fresh per-segment decoders
// in arrival order, skipping records for segments already at full rank as
// the fetcher does, and times Decoder.AddBlock alone.
func absorbReplay(w workload, recs []*rlnc.CodedBlock) (usPerRec, dependentFrac float64) {
	var dependent, absorbed int
	d, ops := timed(func() (time.Duration, int) {
		decs := make(map[uint32]*rlnc.Decoder)
		var el time.Duration
		n := 0
		for _, b := range recs {
			dec := decs[b.SegmentID]
			if dec == nil {
				dec, _ = rlnc.NewDecoder(w.params())
				decs[b.SegmentID] = dec
			}
			if dec.Ready() {
				continue
			}
			t0 := time.Now()
			innovative, err := dec.AddBlock(b)
			el += time.Since(t0)
			if err != nil {
				continue
			}
			n++
			if !innovative {
				dependent++
			}
		}
		absorbed += n
		return el, n
	})
	return perOp(d, ops, time.Microsecond), ratio(float64(dependent), float64(absorbed))
}

// wireRecords frames the captured stream the way the server sent it and
// strips the length prefixes, leaving the bytes UnmarshalRecord parses.
func wireRecords(w workload, recs []*rlnc.CodedBlock) [][]byte {
	out := make([][]byte, 0, len(recs))
	for _, b := range recs {
		fr, err := netio.FrameRecord(b, w.mode)
		if err == nil {
			out = append(out, fr[4:])
		}
	}
	return out
}

// unmarshalReplay times UnmarshalRecord (checksum included) per record.
func unmarshalReplay(wire [][]byte) float64 {
	d, ops := timed(func() (time.Duration, int) {
		var b rlnc.CodedBlock
		t0 := time.Now()
		n := 0
		for _, rec := range wire {
			if b.UnmarshalRecord(rec) == nil {
				n++
			}
		}
		return time.Since(t0), n
	})
	return perOp(d, ops, time.Nanosecond)
}

// frameReplay times netio.FrameRecord per record.
func frameReplay(w workload, recs []*rlnc.CodedBlock) float64 {
	d, ops := timed(func() (time.Duration, int) {
		t0 := time.Now()
		n := 0
		for _, b := range recs {
			if _, err := netio.FrameRecord(b, w.mode); err == nil {
				n++
			}
		}
		return time.Since(t0), n
	})
	return perOp(d, ops, time.Nanosecond)
}

// recoderReplay feeds the captured stream into fresh per-segment recoders
// (timing Recoder.Add per record offered) and then times Recoder.Emit from
// the full-rank recoders.
func recoderReplay(w workload, recs []*rlnc.CodedBlock, seed int64) (addUs, emitUs float64) {
	var recoders map[uint32]*rlnc.Recoder
	dAdd, nAdd := timed(func() (time.Duration, int) {
		recoders = make(map[uint32]*rlnc.Recoder)
		var el time.Duration
		for _, b := range recs {
			rc := recoders[b.SegmentID]
			if rc == nil {
				rc, _ = rlnc.NewRecoder(w.params(), rlnc.WithSeed(seed+int64(b.SegmentID)))
				recoders[b.SegmentID] = rc
			}
			t0 := time.Now()
			rc.Add(b) //nolint:errcheck // captured records were validated by the fetcher
			el += time.Since(t0)
		}
		return el, len(recs)
	})
	dEmit, nEmit := timed(func() (time.Duration, int) {
		t0 := time.Now()
		n := 0
		for _, rc := range recoders {
			for i := 0; i < w.n/4+1; i++ {
				if _, err := rc.Emit(); err == nil {
					n++
				}
			}
		}
		return time.Since(t0), n
	})
	return perOp(dAdd, nAdd, time.Microsecond), perOp(dEmit, nEmit, time.Microsecond)
}

// encodeReplay times ParallelEncoder.Encode in the batch size and worker
// count the origin pump uses.
func encodeReplay(w workload, seg *rlnc.Segment, seed int64) float64 {
	penc, err := rlnc.NewParallelEncoder(rlnc.SharedPool().Workers(), rlnc.FullBlock)
	if err != nil {
		return 0
	}
	batch := max(4, w.n/4)
	d, ops := timed(func() (time.Duration, int) {
		t0 := time.Now()
		if _, err := penc.Encode(seg, batch, seed); err != nil {
			return 0, 0
		}
		seed++
		return time.Since(t0), batch
	})
	return perOp(d, ops, time.Microsecond)
}

// systematicReplay times SystematicEncoder.Block over whole schedule cycles
// (verbatim sweep, XOR repair, dense tail) with the server's defaults.
func systematicReplay(seg *rlnc.Segment, seed int64) float64 {
	enc := rlnc.NewSystematicEncoder(seg, rand.New(rand.NewSource(seed)))
	cycle := seg.Params().BlockCount + enc.XorRepair() + enc.DenseTail()
	d, ops := timed(func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < cycle; i++ {
			enc.Block()
		}
		return time.Since(t0), cycle
	})
	return perOp(d, ops, time.Microsecond)
}
