package netio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// Fetch-stage spans. Free when no obs sink and no flight recorder is
// installed; with a sink: dial latency per connection attempt, backoff sleep
// per retry, dial-to-handshake latency per successful reconnect, and decode
// latency per record fed to a segment decoder (the AddBlock call alone:
// unmarshal, rejects and overshoot for a finished segment are not timed). On
// a traced session the dial and decode spans also land on the flight ring,
// as dial and absorb.
var (
	stageFetchDial    = obs.TracedStage("fetch.dial", "dial")
	stageFetchBackoff = obs.StageOf("fetch.backoff")
	stageFetchReconn  = obs.StageOf("fetch.reconnect")
	stageFetchDecode  = obs.TracedStage("fetch.record_decode", "absorb")
)

// Resilient-client errors.
var (
	// ErrFetchBudget reports a fetch that exhausted its attempt budget
	// before every segment reached full rank. The FetchResult returned
	// alongside it still carries all accumulated progress.
	ErrFetchBudget = errors.New("netio: fetch attempt budget exhausted")
	// ErrHeaderMismatch reports a reconnect that was answered with a
	// different session header: the server is no longer serving the same
	// object, so accumulated rank cannot be extended.
	ErrHeaderMismatch = errors.New("netio: session header changed across reconnects")
	// ErrBadResumeState reports an unusable WithResumeState blob.
	ErrBadResumeState = errors.New("netio: bad fetch resume state")
	// ErrFetchTimeout reports a fetch that ran out of its WithFetchTimeout
	// wall-clock budget before every segment reached full rank. Like
	// ErrFetchBudget, the FetchResult returned alongside it still carries
	// all accumulated progress.
	ErrFetchTimeout = errors.New("netio: fetch timeout")
)

// DialFunc opens one connection to the serving peer. The Fetcher calls it
// for the initial connection and again for every reconnect.
type DialFunc func(ctx context.Context) (net.Conn, error)

// FetchResult is everything a fetch produced, returned even when the fetch
// failed: RLNC progress is rank, and rank is never worth discarding.
type FetchResult struct {
	// Payload is the complete reassembled object, nil unless every segment
	// reached full rank.
	Payload []byte
	// Segments holds the segments that reached full rank, keyed by ID.
	Segments map[uint32]*rlnc.Segment
	// Ranks maps every segment with at least one innovative block to its
	// decoder rank, including partial ones.
	Ranks map[uint32]int
	// Mode is the session coding discipline the server declared in the
	// handshake; meaningful once at least one handshake succeeded.
	Mode WireMode
	// Stats is never nil.
	Stats *FetchStats
}

// Fetcher is a resilient download client for the push protocol. Unlike the
// one-shot Fetch it owns a dial function rather than a connection, and it
// carries its per-segment decoders across reconnects: a connection reset, a
// framing loss, or a server restart costs only the bytes in flight, never
// accumulated rank — the property that makes a coded transport need no
// retransmission protocol (paper Sec. 5.1).
//
// A Fetcher is single-use and not safe for concurrent use: construct, call
// Fetch once, then optionally State.
type Fetcher struct {
	dial   DialFunc
	cfg    fetcherConfig // normalized
	cfgErr error         // validation failure, returned by Fetch
	rng    *rand.Rand    // jitter source

	hdr         *sessionHeader
	established bool
	decoders    map[uint32]*rlnc.Decoder
	blk         rlnc.CodedBlock // absorb's reused block when no tap keeps blocks
	ready       int
	stats       fetcherMetrics

	// Admission-decision carry-over between attempts: busyHint floors the
	// next backoff sleep at a BUSY decision's retry-after, promptRetry skips
	// the backoff entirely after a REDIRECT (the new target deserves an
	// immediate dial).
	busyHint    time.Duration
	promptRetry bool

	// reconnSpan times dial-through-handshake on reconnect attempts. Started
	// in Fetch before redialing, ended in session once the handshake lands; a
	// failed attempt's span is simply dropped when the next one starts.
	reconnSpan obs.Span

	// Inherited trace context from the server's XNCT record, and the round
	// span named by the latest record prelude. Atomics: the fetch loop is
	// single-goroutine, but a relay's serving side reads these concurrently
	// (TraceContext, LastRoundSpan) to parent its own spans.
	trOK      atomic.Bool
	trTrace   atomic.Uint64
	trRoot    atomic.Uint64
	lastRound atomic.Uint64
}

// traceNode labels this fetcher's spans and flight events.
func (f *Fetcher) traceNode() string {
	if f.cfg.TraceNode != "" {
		return f.cfg.TraceNode
	}
	return "fetch"
}

// TraceContext returns the trace the upstream server declared in the latest
// traced handshake: the transfer's trace ID and the server's root span. ok is
// false until a traced session is established. Safe for concurrent use.
func (f *Fetcher) TraceContext() (trace.TraceID, trace.SpanID, bool) {
	if !f.trOK.Load() {
		return 0, 0, false
	}
	return trace.TraceID(f.trTrace.Load()), trace.SpanID(f.trRoot.Load()), true
}

// LastRoundSpan returns the upstream pump-round span named by the most recent
// record prelude (0 before any traced record). Safe for concurrent use.
func (f *Fetcher) LastRoundSpan() trace.SpanID {
	return trace.SpanID(f.lastRound.Load())
}

// fetcherMetrics is the fetch ledger as registry-attachable counters: the
// Fetcher increments these, and FetchStats is a point-in-time view over
// them (the fetch loop is single-goroutine, but scrapes are concurrent).
type fetcherMetrics struct {
	attempts       obs.Counter
	reconnects     obs.Counter
	records        obs.Counter
	dependent      obs.Counter
	corrupt        obs.Counter
	malformed      obs.Counter
	badSegment     obs.Counter
	framingResyncs obs.Counter
	resumedRank    obs.Counter
	bytes          obs.Counter
	bytesDiscarded obs.Counter

	admissionBusy       obs.Counter
	admissionRedirected obs.Counter
}

// view snapshots the ledger as the public FetchStats shape.
func (m *fetcherMetrics) view() *FetchStats {
	return &FetchStats{
		Attempts:       int(m.attempts.Load()),
		Reconnects:     int(m.reconnects.Load()),
		Records:        int(m.records.Load()),
		Dependent:      int(m.dependent.Load()),
		Corrupt:        int(m.corrupt.Load()),
		Malformed:      int(m.malformed.Load()),
		BadSegment:     int(m.badSegment.Load()),
		FramingResyncs: int(m.framingResyncs.Load()),
		ResumedRank:    int(m.resumedRank.Load()),
		Bytes:          m.bytes.Load(),
		BytesDiscarded: m.bytesDiscarded.Load(),

		AdmissionBusy:       int(m.admissionBusy.Load()),
		AdmissionRedirected: int(m.admissionRedirected.Load()),
	}
}

// register attaches the ledger to reg under prefix.
func (m *fetcherMetrics) register(reg *obs.Registry, prefix string) error {
	for _, e := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"attempts", "connection attempts, including the first", &m.attempts},
		{"reconnects", "successful handshakes after the first", &m.reconnects},
		{"records", "complete records received", &m.records},
		{"dependent", "linearly dependent blocks (innovation overhead)", &m.dependent},
		{"corrupt", "records rejected for bit damage", &m.corrupt},
		{"malformed", "checksummed records with the wrong session shape", &m.malformed},
		{"bad_segment", "checksummed records with an out-of-range segment ID", &m.badSegment},
		{"framing_resyncs", "corrupted length prefixes forcing a reconnect", &m.framingResyncs},
		{"resumed_rank", "total decoder rank carried across reconnects", &m.resumedRank},
		{"bytes", "wire bytes consumed in complete records", &m.bytes},
		{"bytes_discarded", "bytes thrown away: rejects, bad prefixes, partials", &m.bytesDiscarded},
		{"admission_busy", "handshakes answered with a BUSY admission decision", &m.admissionBusy},
		{"admission_redirected", "handshakes answered with a REDIRECT admission decision", &m.admissionRedirected},
	} {
		if err := reg.RegisterCounter(prefix+"."+e.name, e.help, e.c); err != nil {
			return err
		}
	}
	return nil
}

// NewFetcher returns a Fetcher that downloads through dial. An invalid
// option value is reported by Fetch, before it dials.
func NewFetcher(dial DialFunc, opts ...FetcherOption) *Fetcher {
	cfg := fetcherDefaults()
	for _, opt := range opts {
		opt(&cfg)
	}
	f := &Fetcher{dial: dial, cfgErr: cfg.validate()}
	f.cfg, f.rng = cfg.normalized()
	if f.cfg.Metrics != nil {
		// Best-effort: a name collision (second fetcher on one registry)
		// drops the registration but never the ledger itself.
		f.stats.register(f.cfg.Metrics, "fetch") //nolint:errcheck
	}
	return f
}

// Fetch runs the download until every segment reaches full rank, the
// attempt budget runs out, the WithFetchTimeout wall-clock budget expires,
// or ctx ends. The FetchResult is never nil and always carries the stats
// plus whatever segments and ranks were decoded, even alongside an error — a
// budget-exhausted or timed-out fetch degrades to a partial result instead
// of discarding progress. An invalid option value fails the fetch before
// the first dial.
func (f *Fetcher) Fetch(ctx context.Context) (*FetchResult, error) {
	if f.cfgErr != nil {
		return f.result(), f.cfgErr
	}
	outer := ctx
	if f.cfg.FetchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.FetchTimeout)
		defer cancel()
	}
	res, err := f.fetch(ctx)
	// A deadline that fired on the fetch's own timer — not on the caller's
	// context — is the wall-clock budget running out, not a cancellation.
	if err != nil && f.cfg.FetchTimeout > 0 && outer.Err() == nil &&
		errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w: %v elapsed: %v", ErrFetchTimeout, f.cfg.FetchTimeout, err)
	}
	return res, err
}

func (f *Fetcher) fetch(ctx context.Context) (*FetchResult, error) {
	if f.cfg.ResumeState != nil {
		if err := f.restoreState(f.cfg.ResumeState); err != nil {
			return f.result(), err
		}
		f.cfg.ResumeState = nil
	}
	var lastErr error
	// retry drives the backoff schedule and resets whenever a session
	// absorbs at least one record: a server that streamed data and then
	// dropped us is healthy, so the next reconnect should be prompt, not
	// pay for every disconnect since the fetch began. Only consecutive
	// barren attempts escalate the delay. attempt keeps counting every
	// dial for the maxAttempts budget.
	retry := 0
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return f.result(), cancelErr(ctx)
		}
		if f.cfg.MaxAttempts > 0 && attempt >= f.cfg.MaxAttempts {
			return f.result(), budgetErr(attempt, lastErr)
		}
		if retry > 0 {
			if err := f.sleepBackoff(ctx, retry); err != nil {
				return f.result(), cancelErr(ctx)
			}
		}
		retry++
		f.stats.attempts.Inc()
		if f.established {
			f.reconnSpan = stageFetchReconn.Start()
		}
		tr, root, _ := f.TraceContext()
		dsp := stageFetchDial.StartTraced(obs.Trace{Node: f.traceNode(), ID: tr, Parent: root, Seg: -1})
		conn, err := f.dial(ctx)
		dsp.End()
		if err != nil {
			if ctx.Err() != nil {
				return f.result(), cancelErr(ctx)
			}
			lastErr = err
			continue
		}
		before := f.stats.records.Load()
		done, fatal, err := f.session(ctx, conn)
		if done {
			break
		}
		if fatal {
			return f.result(), err
		}
		if f.stats.records.Load() > before || f.promptRetry {
			// A productive session, or a REDIRECT naming a new target:
			// either way the next dial should be prompt.
			retry = 0
			f.promptRetry = false
		}
		lastErr = err
	}

	res := f.result()
	segs := make([]*rlnc.Segment, 0, len(res.Segments))
	for _, seg := range res.Segments {
		segs = append(segs, seg)
	}
	payload, err := rlnc.ReassembleSegments(segs, int(f.hdr.length), f.hdr.params)
	if err != nil {
		return res, err
	}
	res.Payload = payload
	return res, nil
}

// budgetErr shapes the budget-exhaustion error. A single-attempt fetch (the
// one-shot Fetch path) surfaces the session error directly so callers keep
// matching the protocol sentinels; multi-attempt fetches wrap both.
func budgetErr(attempts int, lastErr error) error {
	if attempts == 1 && lastErr != nil {
		return lastErr
	}
	if lastErr == nil {
		return fmt.Errorf("%w: %d attempts", ErrFetchBudget, attempts)
	}
	return fmt.Errorf("%w: %d attempts, last error: %w", ErrFetchBudget, attempts, lastErr)
}

func cancelErr(ctx context.Context) error {
	return fmt.Errorf("netio: fetch cancelled: %w", ctx.Err())
}

// remaining returns how many segments still lack full rank.
func (f *Fetcher) remaining() int {
	if f.hdr == nil {
		return 1
	}
	return f.hdr.segments - f.ready
}

// totalRank sums the decoder ranks across all segments.
func (f *Fetcher) totalRank() int {
	total := 0
	for _, dec := range f.decoders {
		total += dec.Rank()
	}
	return total
}

// Stats snapshots the fetch ledger. Unlike Ranks and State it is safe to
// call concurrently with Fetch — the ledger is atomics all the way down — so
// a control plane can watch admission counters while the fetch runs.
func (f *Fetcher) Stats() *FetchStats {
	return f.stats.view()
}

// Ranks returns the current per-segment decoder ranks. Not safe to call
// concurrently with Fetch.
func (f *Fetcher) Ranks() map[uint32]int {
	ranks := make(map[uint32]int, len(f.decoders))
	for id, dec := range f.decoders {
		ranks[id] = dec.Rank()
	}
	return ranks
}

// result snapshots the accumulated progress.
func (f *Fetcher) result() *FetchResult {
	res := &FetchResult{
		Segments: make(map[uint32]*rlnc.Segment),
		Ranks:    f.Ranks(),
		Stats:    f.stats.view(),
	}
	if f.hdr != nil {
		res.Mode = f.hdr.mode
	}
	for id, dec := range f.decoders {
		if !dec.Ready() {
			continue
		}
		if seg, err := dec.Segment(); err == nil {
			res.Segments[id] = seg
		}
	}
	return res
}

// session consumes one connection: handshake, then records until every
// segment is decoded or the stream fails. It reports done when the fetch is
// complete; a non-fatal error means "reconnect and continue".
func (f *Fetcher) session(ctx context.Context, conn net.Conn) (done, fatal bool, err error) {
	defer conn.Close()

	// A cancelled context forces every blocked and future read to fail
	// immediately by moving the read deadline into the past.
	unhook := context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(time.Unix(1, 0))
	})
	defer unhook()

	hs, err := readHandshake(conn)
	if err != nil {
		if ctx.Err() != nil {
			return false, true, cancelErr(ctx)
		}
		return false, false, err
	}
	if hs.dec != nil && hs.dec.code != admissionAccept {
		// A structured rejection, not a stream failure: non-fatal, so the
		// retry loop keeps going, shaped by the server's own guidance.
		switch hs.dec.code {
		case admissionBusy:
			f.stats.admissionBusy.Inc()
			f.busyHint = hs.dec.retryAfter
		case admissionRedirect:
			f.stats.admissionRedirected.Inc()
			trace.Emit(trace.KindRedirect, f.traceNode(), hs.dec.addr, -1, 0)
			if f.cfg.Redirector != nil {
				f.cfg.Redirector.SetTarget(hs.dec.addr)
				f.promptRetry = true
			}
		}
		return false, false, hs.dec.Err()
	}
	h := hs.hdr
	switch {
	case f.hdr == nil:
		hh := h
		f.hdr = &hh
		if f.decoders == nil {
			f.decoders = make(map[uint32]*rlnc.Decoder, h.segments)
		} else if err := f.validateResumed(); err != nil {
			return false, true, err
		}
	case h != *f.hdr:
		return false, true, fmt.Errorf("%w: had %v/%d segments/%d bytes, got %v/%d segments/%d bytes",
			ErrHeaderMismatch, f.hdr.params, f.hdr.segments, f.hdr.length, h.params, h.segments, h.length)
	}
	if f.established {
		f.stats.reconnects.Inc()
		f.stats.resumedRank.Add(int64(f.totalRank()))
		f.reconnSpan.End()
		f.reconnSpan = obs.Span{}
		trace.Emit(trace.KindReconnect, f.traceNode(), "resumed", -1, int64(f.totalRank()))
		if f.cfg.ReconnectHook != nil {
			f.cfg.ReconnectHook(int(f.stats.reconnects.Load()), f.Ranks())
		}
	}
	f.established = true
	traced := hs.traced() && hs.tctx != nil
	var tr trace.TraceID
	if traced {
		tr = hs.tctx.trace
		f.trTrace.Store(uint64(hs.tctx.trace))
		f.trRoot.Store(uint64(hs.tctx.root))
		f.trOK.Store(true)
	}
	if f.cfg.SessionHook != nil {
		f.cfg.SessionHook(h.info())
	}

	// Every record of a session is a marshaled CodedBlock for the
	// handshake's (n, k), so its framed length is a constant — two constants
	// in systematic mode, where compact XNC2 GF(2) records interleave with
	// XNC1 dense-tail records. A prefix that matches neither is framing loss
	// — a corrupted length, not a record to allocate — and the stream beyond
	// it is unparseable; the fetcher resynchronizes by reconnecting, keeping
	// all rank.
	expect := uint32(wireSize(f.hdr.params))
	expectXor := expect
	if f.hdr.mode == ModeSystematic {
		expectXor = uint32(rlnc.XorWireSize(f.hdr.params))
	}
	var lenBuf [4]byte
	var preBuf [recordPreludeLen]byte
	var curRound trace.SpanID
	// One read buffer serves every record of the session: absorb copies the
	// coefficients and payload out into a fresh block before the next read.
	recBuf := make([]byte, max(expect, expectXor))
	for f.remaining() > 0 {
		if traced {
			// Traced framing: a CRC-guarded round prelude precedes every
			// length prefix. A damaged prelude is framing loss exactly like a
			// damaged length — resynchronize by reconnecting, keeping rank —
			// rather than a license to attribute records to a phantom round.
			if _, err := io.ReadFull(conn, preBuf[:]); err != nil {
				return f.streamErr(ctx, fmt.Errorf("%w: %v", ErrStreamTruncated, err))
			}
			round, perr := parseRecordPrelude(preBuf[:])
			if perr != nil {
				f.stats.framingResyncs.Inc()
				f.stats.bytesDiscarded.Add(recordPreludeLen)
				return f.streamErr(ctx, fmt.Errorf("%v: resynchronizing", perr))
			}
			curRound = round
			f.lastRound.Store(uint64(round))
			f.stats.bytes.Add(recordPreludeLen)
		}
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return f.streamErr(ctx, fmt.Errorf("%w: %v", ErrStreamTruncated, err))
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n != expect && n != expectXor {
			f.stats.framingResyncs.Inc()
			f.stats.bytesDiscarded.Add(4)
			return f.streamErr(ctx, fmt.Errorf("%w: %d, want %d: resynchronizing", ErrRecordLength, n, expect))
		}
		rec := recBuf[:n]
		if m, err := io.ReadFull(conn, rec); err != nil {
			f.stats.bytesDiscarded.Add(int64(m) + 4)
			return f.streamErr(ctx, fmt.Errorf("%w: truncated record: %v", ErrStreamTruncated, err))
		}
		f.stats.records.Inc()
		f.stats.bytes.Add(int64(n) + 4)
		if err := f.absorb(rec, tr, curRound); err != nil {
			return false, true, err
		}
	}
	return true, false, nil
}

// wireSize returns the marshaled size of a coded block for p.
func wireSize(p rlnc.Params) int {
	return (&rlnc.CodedBlock{
		Coeffs:  make([]byte, p.BlockCount),
		Payload: make([]byte, p.BlockSize),
	}).WireSize()
}

// streamErr classifies a mid-stream failure: fatal if the context ended,
// otherwise a reconnectable stream error.
func (f *Fetcher) streamErr(ctx context.Context, err error) (bool, bool, error) {
	if ctx.Err() != nil {
		return false, true, cancelErr(ctx)
	}
	return false, false, err
}

// absorb parses one record and feeds it to the owning segment decoder,
// classifying rejects: Corrupt (bit damage caught by magic or checksum),
// Malformed (checksummed but the wrong shape for the session — a server
// bug, not line noise), BadSegment (checksummed but an out-of-range
// segment ID — rejected before it can allocate a stray decoder). Only an
// internal decoder failure is an error. On a traced session tr names the
// transfer and round the pump-round span this record rode in on; the decode
// span parents under the round, linking origin encode work to leaf decode.
// rec is the session's read buffer: nothing may keep it past the call.
func (f *Fetcher) absorb(rec []byte, tr trace.TraceID, round trace.SpanID) error {
	discard := func() { f.stats.bytesDiscarded.Add(int64(len(rec)) + 4) }
	// The decoders copy what they keep, so without a tap the block's storage
	// is reused record to record; a tap is promised a fresh block.
	blk := &f.blk
	if f.cfg.RecordTap != nil {
		blk = new(rlnc.CodedBlock)
	}
	var err error
	if f.hdr.mode == ModeSystematic {
		// Systematic sessions interleave both encodings; dispatch on the
		// record magic. Dense sessions stay strict: an XNC2 record there is
		// a server bug, rejected below as bad magic.
		err = blk.UnmarshalRecord(rec)
	} else {
		err = blk.UnmarshalBinary(rec)
	}
	if err != nil {
		if errors.Is(err, rlnc.ErrBadChecksum) || errors.Is(err, rlnc.ErrBadMagic) {
			f.stats.corrupt.Inc()
		} else {
			f.stats.malformed.Inc()
		}
		discard()
		return nil
	}
	if blk.Validate(f.hdr.params) != nil {
		f.stats.malformed.Inc()
		discard()
		return nil
	}
	if blk.SegmentID >= uint32(f.hdr.segments) {
		f.stats.badSegment.Inc()
		discard()
		return nil
	}
	if f.cfg.RecordTap != nil {
		f.cfg.RecordTap(blk)
	}
	dec := f.decoders[blk.SegmentID]
	if dec == nil {
		if dec, err = rlnc.NewDecoder(f.hdr.params); err != nil {
			return err
		}
		f.decoders[blk.SegmentID] = dec
	}
	if dec.Ready() {
		// Round-robin overshoot for an already-finished segment.
		return nil
	}
	sp := stageFetchDecode.StartTraced(obs.Trace{Node: f.traceNode(), ID: tr, Parent: round, Seg: int32(blk.SegmentID)})
	innovative, err := dec.AddBlock(blk)
	sp.End()
	if err != nil {
		return err
	}
	if !innovative {
		f.stats.dependent.Inc()
	} else if dec.Ready() {
		f.ready++
		trace.Emit(trace.KindRank, f.traceNode(), "segment_ready", int32(blk.SegmentID), int64(dec.Rank()))
	}
	return nil
}

// sleepBackoff waits out the backoff before retry r (1-based), returning
// early with the context error if ctx ends mid-backoff. A pending BUSY
// retry-after hint floors the delay once and is then consumed.
func (f *Fetcher) sleepBackoff(ctx context.Context, retry int) error {
	d := backoffDelay(retry, f.cfg.BackoffBase, f.cfg.BackoffMax, f.cfg.Jitter, f.rng)
	if hint := f.busyHint; hint > 0 {
		f.busyHint = 0
		if hint > d {
			d = hint
		}
	}
	if d <= 0 {
		return ctx.Err()
	}
	defer stageFetchBackoff.Start().End()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffDelay computes the delay before retry r (1-based): base doubled
// r−1 times, capped at max, then jittered uniformly over ±jitter·delay and
// re-capped. A non-positive base disables backoff entirely.
func backoffDelay(retry int, base, max time.Duration, jitter float64, rng *rand.Rand) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	d := base
	for i := 1; i < retry; i++ {
		if d >= max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		span := jitter * float64(d)
		d = time.Duration(float64(d) - span + 2*span*rng.Float64())
		if d < 0 {
			d = 0
		}
		if d > max {
			d = max
		}
	}
	return d
}

// Fetch-state blob: magic "XNCF" | u32 version | u32 entry count |
// per entry: u32 segment ID, u32 length, Decoder.MarshalBinary bytes |
// u32 CRC-32 (IEEE) over everything above.
const (
	stateMagic   = "XNCF"
	stateVersion = 1
)

// State serializes every segment decoder — partial and complete — so a
// later Fetcher (even in a new process) can resume this fetch's rank with
// WithResumeState. Not safe to call concurrently with Fetch.
func (f *Fetcher) State() ([]byte, error) {
	buf := make([]byte, 12, 64)
	copy(buf, stateMagic)
	binary.BigEndian.PutUint32(buf[4:], stateVersion)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(f.decoders)))
	var entry [8]byte
	for id, dec := range f.decoders {
		body, err := dec.MarshalBinary()
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint32(entry[:4], id)
		binary.BigEndian.PutUint32(entry[4:], uint32(len(body)))
		buf = append(buf, entry[:]...)
		buf = append(buf, body...)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	return append(buf, crc[:]...), nil
}

// restoreState rebuilds the decoder map from a State blob. The header is
// not known yet, so cross-checks against the session happen at the first
// handshake (validateResumed).
func (f *Fetcher) restoreState(data []byte) error {
	if len(data) < 16 || string(data[:4]) != stateMagic {
		return fmt.Errorf("%w: bad magic or size", ErrBadResumeState)
	}
	if v := binary.BigEndian.Uint32(data[4:]); v != stateVersion {
		return fmt.Errorf("%w: version %d", ErrBadResumeState, v)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return fmt.Errorf("%w: checksum", ErrBadResumeState)
	}
	count := int(binary.BigEndian.Uint32(data[8:]))
	decoders := make(map[uint32]*rlnc.Decoder, count)
	off := 12
	ready := 0
	for i := 0; i < count; i++ {
		if off+8 > len(body) {
			return fmt.Errorf("%w: truncated entry %d", ErrBadResumeState, i)
		}
		id := binary.BigEndian.Uint32(body[off:])
		n := int(binary.BigEndian.Uint32(body[off+4:]))
		off += 8
		if n < 0 || off+n > len(body) {
			return fmt.Errorf("%w: entry %d overruns", ErrBadResumeState, i)
		}
		dec := new(rlnc.Decoder)
		if err := dec.UnmarshalBinary(body[off : off+n]); err != nil {
			return fmt.Errorf("%w: segment %d: %v", ErrBadResumeState, id, err)
		}
		if _, dup := decoders[id]; dup {
			return fmt.Errorf("%w: duplicate segment %d", ErrBadResumeState, id)
		}
		decoders[id] = dec
		if dec.Ready() {
			ready++
		}
		off += n
	}
	if off != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadResumeState, len(body)-off)
	}
	f.decoders = decoders
	f.ready = ready
	return nil
}

// validateResumed cross-checks restored decoders against the first session
// header: resumed rank must belong to the object actually being served.
func (f *Fetcher) validateResumed() error {
	for id, dec := range f.decoders {
		if dec.Params() != f.hdr.params {
			return fmt.Errorf("%w: segment %d resumed with %v, server serves %v",
				ErrBadResumeState, id, dec.Params(), f.hdr.params)
		}
		if id >= uint32(f.hdr.segments) {
			return fmt.Errorf("%w: resumed segment %d out of range (%d segments)",
				ErrBadResumeState, id, f.hdr.segments)
		}
	}
	return nil
}
