package netio

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"extremenc/internal/rlnc"
)

// SessionInfo describes the object a server declares in its session
// handshake: the coding parameters, segment count, reassembled byte length,
// and wire mode. It is the exported face of the wire header — a relay that
// fetches upstream learns the SessionInfo from its fetcher's session hook
// and re-declares the same object (possibly in a different mode) downstream.
type SessionInfo struct {
	Params   rlnc.Params
	Segments int
	Length   int64
	Mode     WireMode
}

// header converts to the wire-protocol form.
func (si SessionInfo) header() sessionHeader {
	return sessionHeader{params: si.Params, segments: si.Segments, length: si.Length, mode: si.Mode}
}

// info converts a parsed wire header to the exported form.
func (h sessionHeader) info() SessionInfo {
	return SessionInfo{Params: h.params, Segments: h.segments, Length: h.length, Mode: h.mode}
}

// Validate rejects a SessionInfo no handshake would accept.
func (si SessionInfo) Validate() error {
	if _, err := (sessionHeaderCodec{}).roundTrip(si.header()); err != nil {
		return err
	}
	return nil
}

// RecordSource produces the framed records a Server's pump fans out. It
// abstracts where coded blocks come from: a media-backed server encodes
// fresh blocks from source segments (NewServer), while a mesh relay emits
// recombinations of blocks it received upstream without ever decoding
// (NewSourceServer). The pump is a single goroutine, so Records is never
// called concurrently by one server; a source shared across servers must
// synchronize internally.
type RecordSource interface {
	// Info returns the session handshake the server declares. It must be
	// constant for the server's lifetime: fetchers treat a changed header
	// across reconnects as fatal.
	Info() SessionInfo

	// Records returns up to batch framed records (length prefix included —
	// use FrameRecordWith) for segment index seg, each in a buffer from
	// alloc, the server's frame pool. The server owns every returned buffer
	// and recycles it once the record's last write finishes, so a source
	// must neither keep nor re-return one. Returning fewer records, or none,
	// is allowed: a relay that has not yet accumulated rank for seg simply
	// has nothing to say, and the pump backs off briefly instead of treating
	// it as an error.
	Records(seg, batch int, alloc func(int) []byte) [][]byte
}

// DegradableSource is a RecordSource with a cheaper degraded schedule the
// brownout controller can toggle. Lean semantics are the source's own; the
// contract is only that lean output stays protocol-valid and that SetLean is
// safe to call concurrently with Records (the server calls it from the
// brownout goroutine while the pumps run). The media-backed systematic
// source drops its dense tail and halves its XOR repair rate when lean;
// dense sources have no cheaper schedule and treat SetLean as a no-op.
type DegradableSource interface {
	RecordSource

	// SetLean switches between the full (false) and degraded (true)
	// schedule. Redundant calls are cheap and idempotent.
	SetLean(bool)
}

// ShardedRecordSource is a RecordSource that can split itself into
// independent per-shard sub-sources. A server configured with more than one
// pump shard asks for one sub-source per shard, each called only from that
// shard's pump goroutine; a plain RecordSource is instead shared behind a
// lock, serializing Records across the shards.
type ShardedRecordSource interface {
	RecordSource

	// ShardSource returns the sub-source for shard (0 ≤ shard < shards).
	// Every sub-source must declare the same Info as the parent.
	ShardSource(shard, shards int) RecordSource
}

// lockedSource shares one RecordSource across several pump shards by
// serializing Records; Info stays lock-free (it must be constant anyway).
type lockedSource struct {
	mu  sync.Mutex
	src RecordSource
}

func (l *lockedSource) Info() SessionInfo { return l.src.Info() }

func (l *lockedSource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src.Records(seg, batch, alloc)
}

// SetLean forwards the brownout lever to the wrapped source when it has one;
// the Records lock keeps the schedule change ordered against emits.
func (l *lockedSource) SetLean(lean bool) {
	if deg, ok := l.src.(DegradableSource); ok {
		l.mu.Lock()
		defer l.mu.Unlock()
		deg.SetLean(lean)
	}
}

// FrameRecord marshals one coded block as a length-prefixed wire record in
// the given mode's encoding: ModeSystematic frames binary blocks in the
// compact XNC2 format and dense blocks as XNC1; ModeDense frames everything
// as XNC1. This is the framing the Server pumps use internally, exported so
// RecordSource implementations outside this package (mesh relays) produce
// bit-identical records.
func FrameRecord(b *rlnc.CodedBlock, mode WireMode) ([]byte, error) {
	return FrameRecordWith(b, mode, nil)
}

// FrameRecordWith is FrameRecord into a buffer from alloc (nil: plain make):
// the length prefix and the marshaled block are written once, in place. A
// RecordSource passes the alloc its Records call received, so its frames
// come from, and return to, the server's frame pool.
func FrameRecordWith(b *rlnc.CodedBlock, mode WireMode, alloc func(int) []byte) ([]byte, error) {
	if mode == ModeSystematic {
		return frameSystematicRecord(b, alloc)
	}
	return frameRecord(b, alloc)
}

// objectSource is the media-backed RecordSource behind NewServer: dense
// batches through the shared parallel encoder, or the systematic sweep →
// XOR repair → dense tail schedule per segment in ModeSystematic. A sharded
// server builds one objectSource per shard, each with its own seed lane.
type objectSource struct {
	obj  *rlnc.Object
	mode WireMode

	// Dense path: the shared parallel encoder plus a per-batch seed
	// counter (each pump is single-goroutine, so plain increments suffice),
	// and the blocks every round is encoded into and framed out of.
	penc   *rlnc.ParallelEncoder
	seed   int64
	blocks []*rlnc.CodedBlock

	// Systematic path: one cycling schedule encoder per segment, plus the
	// brownout lever: lean is flipped by the controller goroutine, observed
	// by the pump, and applied to the encoders lazily (they are not safe to
	// retune from another goroutine). defXor/defTail remember the configured
	// schedule so leaving lean restores it exactly.
	sysEncs     []*rlnc.SystematicEncoder
	lean        atomic.Bool
	leanApplied bool // pump-goroutine local
	defXor      int
	defTail     int
}

func newObjectSource(obj *rlnc.Object, mode WireMode, penc *rlnc.ParallelEncoder, seed int64) *objectSource {
	src := &objectSource{obj: obj, mode: mode, penc: penc, seed: seed}
	if mode == ModeSystematic {
		rng := rand.New(rand.NewSource(seed))
		src.sysEncs = make([]*rlnc.SystematicEncoder, len(obj.Segments))
		for i, seg := range obj.Segments {
			src.sysEncs[i] = rlnc.NewSystematicEncoder(seg, rng)
		}
		src.defXor = src.sysEncs[0].XorRepair()
		src.defTail = src.sysEncs[0].DenseTail()
	}
	return src
}

// SetLean flips the systematic schedule between the configured full cycle and
// a degraded one — half the XOR repair rate (floor 2), no dense tail — that
// trades repair margin for encode CPU under brownout. Safe to call from the
// controller goroutine while the pump runs; a dense-mode source has no
// cheaper schedule and ignores the flip.
func (o *objectSource) SetLean(lean bool) { o.lean.Store(lean) }

// applyLean retunes the segment encoders when the lean flag changed since the
// last pump round. Runs only on the pump goroutine, which is the sole caller
// of the encoders.
func (o *objectSource) applyLean() {
	lean := o.lean.Load()
	if lean == o.leanApplied {
		return
	}
	o.leanApplied = lean
	xor, tail := o.defXor, o.defTail
	if lean {
		xor, tail = max(o.defXor/2, 2), 0
	}
	for _, se := range o.sysEncs {
		se.SetSchedule(xor, tail)
	}
}

func (o *objectSource) Info() SessionInfo {
	return SessionInfo{
		Params:   o.obj.Params,
		Segments: len(o.obj.Segments),
		Length:   int64(o.obj.Length),
		Mode:     o.mode,
	}
}

func (o *objectSource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	if o.mode == ModeSystematic {
		// Systematic schedule: the per-segment encoder cycles sweep → XOR
		// repair → dense tail; binary blocks go out in the compact GF(2)
		// encoding. Block is the non-retaining emit — the record is
		// marshaled before the next call reuses its storage.
		o.applyLean()
		se := o.sysEncs[seg]
		recs := make([][]byte, 0, batch)
		for i := 0; i < batch; i++ {
			rec, err := frameSystematicRecord(se.Block(), alloc)
			if err != nil {
				continue
			}
			recs = append(recs, rec)
		}
		return recs
	}
	blocks, err := o.penc.EncodeReuse(o.blocks, o.obj.Segments[seg], batch, o.seed)
	o.seed++
	if err != nil {
		// Unreachable for a validated object; drop the batch.
		return nil
	}
	o.blocks = blocks
	recs := make([][]byte, 0, len(blocks))
	for _, blk := range blocks {
		rec, err := frameRecord(blk, alloc)
		if err != nil {
			continue
		}
		recs = append(recs, rec)
	}
	return recs
}

// sessionHeaderCodec bounces a header through the wire marshal/parse pair so
// SessionInfo.Validate rejects exactly what a real handshake would.
type sessionHeaderCodec struct{}

func (sessionHeaderCodec) roundTrip(h sessionHeader) (sessionHeader, error) {
	var buf headerBuffer
	if err := writeSessionHeader(&buf, h); err != nil {
		return sessionHeader{}, err
	}
	return readSessionHeader(&buf)
}

// headerBuffer is a minimal in-memory io.ReadWriter for the round trip.
type headerBuffer struct{ b []byte }

func (h *headerBuffer) Write(p []byte) (int, error) { h.b = append(h.b, p...); return len(p), nil }

func (h *headerBuffer) Read(p []byte) (int, error) {
	if len(h.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, h.b)
	h.b = h.b[n:]
	return n, nil
}
