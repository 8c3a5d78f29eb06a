package netio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// Serving-stage spans. Free when no obs sink and no flight recorder is
// installed; with a sink, each records a latency sample per operation (not
// per byte): one handshake span per session, one queue-offer span per
// fan-out operation (per record in FanoutPerRecord, per pump round in
// FanoutAmortized), one record-send span per wire flush (per record in
// FanoutPerRecord, per vectored batch in FanoutAmortized). On a traced
// server the same spans land on the flight ring under their ring names,
// next to the ring-only serve (server lifetime), round (one pump round),
// and encode (the round's source draw) spans.
var (
	stageHandshake  = obs.StageOf("netio.handshake")
	stageQueueOffer = obs.TracedStage("netio.queue_offer", "queue_offer")
	stageRecordSend = obs.TracedStage("netio.record_send", "flush")
	stageServe      = obs.TracedStage("", "serve")
	stageRound      = obs.TracedStage("", "round")
	stageEncode     = obs.TracedStage("", "encode")
)

// Serving errors.
var (
	// ErrServerClosed reports an operation on a server after Shutdown.
	ErrServerClosed = errors.New("netio: server closed")
	// ErrShortWrite reports a record write that could not be completed
	// within the session's deadline budget.
	ErrShortWrite = errors.New("netio: short record write")
)

// writerBatch caps how many queued records one vectored flush covers in the
// amortized fan-out rung; FanoutPerRecord always flushes one.
const writerBatch = 16

// Server pushes coded blocks for one object to every connection. Sessions
// are partitioned across one or more encoder-pump shards: each shard owns a
// record source, a pump goroutine, and its sessions' queues, and new
// sessions join the least-loaded shard. Within a shard the pump frames each
// record once and fans the same refcounted buffer out to every session's
// bounded queue without blocking; a full queue sheds the record for that
// session only, and per-connection write deadlines with retry-then-drop
// semantics bound the cost of a stuck peer. Metrics accumulate both in the
// aggregate counters and per shard, exposed via Snapshot.
type Server struct {
	cfg  serverConfig // normalized
	info SessionInfo

	frames *framePool
	shards []*pumpShard

	counters         Counters
	sessionsTotal    obs.Counter
	sessionsRejected obs.Counter
	sessionSecs      atomic.Int64 // summed finished-session durations, in ns

	// Admission and degradation surface: decisions written to rejected
	// connections, the brownout ladder position, and the sources that can
	// thin their schedule at BrownoutLean.
	admissionBusy       obs.Counter
	admissionRedirected obs.Counter
	brownoutRung        atomic.Int32 // BrownoutRung, written by the controller
	brownoutTransitions obs.Counter
	degradable          []DegradableSource

	mu        sync.Mutex
	joined    int // sessions currently past handshake, across all shards
	closed    bool
	draining  bool
	drainAddr string        // REDIRECT target while draining ("" → BUSY)
	drainDone chan struct{} // closed when the active Drain finishes
	listeners map[net.Listener]struct{}
	nextID    int64

	stop     chan struct{} // closed by Shutdown
	pumpOnce sync.Once
	pumpWG   sync.WaitGroup
	wg       sync.WaitGroup // session goroutines
	auxWG    sync.WaitGroup // decision-writer goroutines

	// Distributed tracing (tracectx.go). traced is latched at construction —
	// cfg.TraceNode set AND the process-global recorder enabled — so every
	// session of one server negotiates the same framing. rootSpan opens at
	// construction and closes in Shutdown; pump rounds and flushes parent
	// under it, and its (traceID, ID) pair is the XNCT context every client
	// receives.
	traced   bool
	traceID  trace.TraceID
	rootSpan obs.Span
}

// pumpShard is one encoder pump and the sessions it feeds. Every shard runs
// the same loop as the original single shared pump; sharding multiplies the
// number of independent fan-out loops, and the per-shard counters make the
// offered == sent + shed ledger checkable shard by shard.
type pumpShard struct {
	id  int
	s   *Server
	src RecordSource

	mu       sync.Mutex
	sessions map[*session]struct{}

	wake     chan struct{} // a session arrived
	consumed chan struct{} // a session drained a record

	c shardCounters
}

// shardCounters is a shard's slice of the traffic ledger, kept as plain
// atomics (the obs-registered aggregate counters stay server-wide so metric
// cardinality does not scale with the shard count).
type shardCounters struct {
	encoded, offered, sent, shed, bytes atomic.Int64
	stallNs, maxStallNs                 atomic.Int64
}

func (c *shardCounters) addStall(d time.Duration) {
	ns := d.Nanoseconds()
	c.stallNs.Add(ns)
	for {
		cur := c.maxStallNs.Load()
		if ns <= cur || c.maxStallNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (c *shardCounters) view() CounterView {
	return CounterView{
		BlocksEncoded:  c.encoded.Load(),
		BlocksOffered:  c.offered.Load(),
		BlocksSent:     c.sent.Load(),
		BlocksShed:     c.shed.Load(),
		BytesSent:      c.bytes.Load(),
		EncodeStall:    time.Duration(c.stallNs.Load()),
		MaxEncodeStall: time.Duration(c.maxStallNs.Load()),
	}
}

// NewServer builds a media-backed server over media split at p: the server
// encodes fresh coded blocks from the source segments.
func NewServer(media []byte, p rlnc.Params, opts ...ServerOption) (*Server, error) {
	cfg, err := buildServerConfig(opts)
	if err != nil {
		return nil, err
	}
	obj, err := rlnc.Split(media, p)
	if err != nil {
		return nil, err
	}
	cfg = cfg.normalized(p.BlockCount)
	srcs := make([]RecordSource, cfg.PumpShards)
	for i := range srcs {
		penc, err := rlnc.NewParallelEncoder(rlnc.SharedPool().Workers(), rlnc.FullBlock)
		if err != nil {
			return nil, err
		}
		srcs[i] = newObjectSource(obj, cfg.Mode, penc, shardSeed(cfg.Seed, i))
	}
	return newServer(srcs[0].Info(), cfg, srcs)
}

// NewSourceServer builds a server over an arbitrary RecordSource: the
// serving half of a mesh relay, which recodes upstream blocks instead of
// encoding source media it does not have. The session machinery — pump
// fan-out, bounded queues with shed-don't-stall, write deadlines, session
// caps, metrics — is identical to a media-backed server; only where records
// come from differs. The handshake is declared by src.Info(), so the
// WithWireMode option is ignored here; WithEncodeBatch sizes the per-round
// Records request. With more than one pump shard, a source implementing
// ShardedRecordSource provides one sub-source per shard; any other source is
// shared behind a lock, serializing Records calls across the shards.
func NewSourceServer(src RecordSource, opts ...ServerOption) (*Server, error) {
	cfg, err := buildServerConfig(opts)
	if err != nil {
		return nil, err
	}
	info := src.Info()
	if err := info.Validate(); err != nil {
		return nil, fmt.Errorf("netio: bad source session info: %w", err)
	}
	cfg = cfg.normalized(info.Params.BlockCount)
	cfg.Mode = info.Mode
	srcs := make([]RecordSource, cfg.PumpShards)
	switch {
	case cfg.PumpShards == 1:
		srcs[0] = src
	default:
		if sh, ok := src.(ShardedRecordSource); ok {
			for i := range srcs {
				srcs[i] = sh.ShardSource(i, cfg.PumpShards)
			}
		} else {
			shared := &lockedSource{src: src}
			for i := range srcs {
				srcs[i] = shared
			}
		}
	}
	return newServer(info, cfg, srcs)
}

// buildServerConfig applies opts over the defaults and validates the result.
func buildServerConfig(opts []ServerOption) (serverConfig, error) {
	cfg := serverDefaults()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg, cfg.validate()
}

// shardSeed derives shard i's coefficient-stream seed. Shard 0 keeps the
// base seed unchanged, so a single-shard server reproduces the historical
// block sequence exactly.
func shardSeed(seed int64, i int) int64 {
	const lane = int64(0x5851F42D4C957F2D) // odd multiplier: distinct lanes per shard
	return seed + int64(i)*lane
}

func newServer(info SessionInfo, cfg serverConfig, srcs []RecordSource) (*Server, error) {
	s := &Server{
		cfg:       cfg,
		info:      info,
		frames:    &framePool{},
		stop:      make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
	s.shards = make([]*pumpShard, len(srcs))
	seen := make(map[DegradableSource]struct{})
	for i, src := range srcs {
		s.shards[i] = &pumpShard{
			id:       i,
			s:        s,
			src:      src,
			sessions: make(map[*session]struct{}),
			wake:     make(chan struct{}, 1),
			consumed: make(chan struct{}, 1),
		}
		// Dedupe: a lockedSource shared across shards appears once.
		if deg, ok := src.(DegradableSource); ok {
			if _, dup := seen[deg]; !dup {
				seen[deg] = struct{}{}
				s.degradable = append(s.degradable, deg)
			}
		}
	}
	if cfg.Metrics != nil {
		if err := s.registerMetrics(cfg.Metrics); err != nil {
			return nil, err
		}
	}
	if cfg.TraceNode != "" && trace.Enabled() {
		s.traced = true
		s.traceID = cfg.TraceID
		if s.traceID == 0 {
			s.traceID = trace.NewTrace()
		}
		s.rootSpan = stageServe.StartTraced(s.traceCtx(cfg.TraceParent, -1))
	}
	return s, nil
}

// traceCtx is the trace context of one of this server's spans. An untraced
// server has trace ID 0, so its spans are untraced.
func (s *Server) traceCtx(parent trace.SpanID, seg int32) obs.Trace {
	return obs.Trace{Node: s.cfg.TraceNode, ID: s.traceID, Parent: parent, Seg: seg}
}

// registerMetrics attaches the server's observability surface to reg: the
// shared traffic counters plus the session ledger, all under the "netio"
// prefix.
func (s *Server) registerMetrics(reg *obs.Registry) error {
	if err := s.counters.Register(reg, "netio"); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.sessions_total",
		"sessions accepted since start", &s.sessionsTotal); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.sessions_rejected",
		"connections refused by the session cap or brownout", &s.sessionsRejected); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.admission_busy",
		"BUSY admission decisions written to new connections", &s.admissionBusy); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.admission_redirected",
		"REDIRECT admission decisions written to new connections", &s.admissionRedirected); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.brownout_transitions",
		"brownout ladder rung changes, both directions", &s.brownoutTransitions); err != nil {
		return err
	}
	if err := reg.RegisterFunc("netio.brownout_rung",
		"current brownout ladder rung (0 off, 1 paced, 2 lean, 3 reject)", func() float64 {
			return float64(s.brownoutRung.Load())
		}); err != nil {
		return err
	}
	if err := reg.RegisterFunc("netio.sessions_live",
		"sessions currently connected", func() float64 {
			s.mu.Lock()
			n := s.joined
			s.mu.Unlock()
			return float64(n)
		}); err != nil {
		return err
	}
	if err := reg.RegisterFunc("netio.pump_shards",
		"independent encoder pumps serving sessions", func() float64 {
			return float64(len(s.shards))
		}); err != nil {
		return err
	}
	return reg.RegisterFunc("netio.session_seconds",
		"summed wall-clock duration of finished sessions", func() float64 {
			return time.Duration(s.sessionSecs.Load()).Seconds()
		})
}

// Segments returns the number of media segments served.
func (s *Server) Segments() int { return s.info.Segments }

// Mode returns the session coding discipline the server declares in every
// handshake.
func (s *Server) Mode() WireMode { return s.info.Mode }

// Info returns the session handshake the server declares.
func (s *Server) Info() SessionInfo { return s.info }

// Shards returns the number of encoder-pump shards.
func (s *Server) Shards() int { return len(s.shards) }

// session is one connected client.
type session struct {
	id      int64
	conn    net.Conn
	shard   *pumpShard // set at join; nil for sessions that never joined
	q       *frameQueue
	started time.Time

	offered atomic.Int64
	sent    atomic.Int64
	shed    atomic.Int64
	bytes   atomic.Int64

	stop chan struct{} // closed on server shutdown
}

// Serve accepts connections from l until ctx is cancelled, the listener
// fails, or the server is shut down. Every accepted connection becomes a
// session fed from a shard's encoder pump. It returns nil after a clean
// Shutdown and ctx.Err() after cancellation (which also shuts the server
// down).
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	// Register the listener so Shutdown (and therefore Drain) can unblock
	// the accept loop; the historical contract that the caller also closes
	// the listener still holds — a double close is harmless.
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	s.startPumps()

	unhook := context.AfterFunc(ctx, func() { l.Close() })
	defer unhook()

	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				s.Shutdown()
				return ctx.Err()
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.startSession(conn) {
			conn.Close()
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			// Unreachable today (every live-server reject writes a
			// decision instead), kept as the accept-loop backstop.
		}
	}
}

// startSession decides admission for conn: an admitted connection gets a
// session goroutine; a rejected one (session cap, brownout shed, drain) gets
// a short-lived decision writer that answers BUSY or REDIRECT and closes it.
// It reports false only when the server is closed — the caller then owns the
// connection.
func (s *Server) startSession(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.draining {
		d := admissionDecision{code: admissionRedirect, addr: s.drainAddr}
		if d.addr == "" {
			d = admissionDecision{code: admissionBusy, retryAfter: s.cfg.RetryAfter}
		}
		s.rejectSession(conn, d)
		return true
	}
	atCap := s.cfg.MaxSessions > 0 && s.joined >= s.cfg.MaxSessions
	if atCap || BrownoutRung(s.brownoutRung.Load()) >= BrownoutReject {
		s.sessionsRejected.Add(1)
		s.rejectSession(conn, admissionDecision{code: admissionBusy, retryAfter: s.cfg.RetryAfter})
		return true
	}
	s.nextID++
	ss := &session{
		id:      s.nextID,
		conn:    conn,
		q:       newFrameQueue(s.cfg.QueueDepth),
		started: time.Now(),
		stop:    s.stop,
	}
	s.wg.Add(1)
	s.mu.Unlock()

	s.sessionsTotal.Add(1)
	trace.Emit(trace.KindAdmission, s.traceNodeName(), "accept", -1, ss.id)
	go s.runSession(ss)
	return true
}

// traceNodeName labels flight-recorder events from this server even when the
// session framing is untraced.
func (s *Server) traceNodeName() string {
	if s.cfg.TraceNode != "" {
		return s.cfg.TraceNode
	}
	return "netio"
}

// rejectSession hands conn to a decision-writer goroutine and releases s.mu,
// which the caller must hold: the auxWG.Add has to be ordered before
// Shutdown's closed flip (also under s.mu) so Shutdown's auxWG.Wait covers
// every writer.
func (s *Server) rejectSession(conn net.Conn, d admissionDecision) {
	switch d.code {
	case admissionBusy:
		s.admissionBusy.Add(1)
		trace.Emit(trace.KindAdmission, s.traceNodeName(), "busy", -1, d.retryAfter.Milliseconds())
	case admissionRedirect:
		s.admissionRedirected.Add(1)
		trace.Emit(trace.KindAdmission, s.traceNodeName(), "redirect:"+d.addr, -1, 0)
	}
	s.auxWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.auxWG.Done()
		defer conn.Close()
		if s.cfg.WriteDeadline > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
		}
		writeDecision(conn, d) //nolint:errcheck — best effort; the peer may already be gone
	}()
}

// runSession writes the handshake, joins the least-loaded shard's fan-out
// set, and streams queued records until the peer hangs up, a write fails its
// deadline budget, or the server shuts down.
func (s *Server) runSession(ss *session) {
	defer s.wg.Done()
	defer ss.conn.Close()

	h := s.info.header()
	// The handshake gets one deadline window and no retry: a peer that
	// connects and never reads must not pin the session goroutine.
	if s.cfg.WriteDeadline > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
	}
	hsp := stageHandshake.Start()
	var err error
	if s.traced {
		// One write covers header and trace context so a slow peer cannot
		// split the handshake across deadline windows.
		buf := appendSessionHeader(make([]byte, 0, protoHeaderLen+traceFixedLen+traceCtxMax+traceCRCLen), h, hsFlagTrace)
		buf = appendTraceContext(buf, traceContext{trace: s.traceID, root: s.rootSpan.ID()})
		_, err = ss.conn.Write(buf)
	} else {
		err = writeSessionHeader(ss.conn, h)
	}
	hsp.End()
	if err == nil {
		s.mu.Lock()
		joined := !s.closed
		if joined {
			sh := s.leastLoadedShard()
			ss.shard = sh
			sh.mu.Lock()
			sh.sessions[ss] = struct{}{}
			sh.mu.Unlock()
			s.joined++
		}
		s.mu.Unlock()
		if joined {
			ss.shard.signalWake()
			s.writeLoop(ss)
			s.mu.Lock()
			ss.shard.mu.Lock()
			delete(ss.shard.sessions, ss)
			ss.shard.mu.Unlock()
			s.joined--
			s.mu.Unlock()
		}
	}
	s.shedResidue(ss)
	s.sessionSecs.Add(int64(time.Since(ss.started)))
}

// leastLoadedShard picks the shard with the fewest sessions (ties go to the
// lowest id). Called with s.mu held.
func (s *Server) leastLoadedShard() *pumpShard {
	best := s.shards[0]
	if len(s.shards) == 1 {
		return best
	}
	best.mu.Lock()
	bestN := len(best.sessions)
	best.mu.Unlock()
	for _, sh := range s.shards[1:] {
		sh.mu.Lock()
		n := len(sh.sessions)
		sh.mu.Unlock()
		if n < bestN {
			best, bestN = sh, n
		}
	}
	return best
}

// shedResidue empties the session queue at teardown, shedding and releasing
// whatever never reached the wire so offered == sent + shed holds exactly.
func (s *Server) shedResidue(ss *session) {
	rest := ss.q.drain()
	if len(rest) == 0 {
		return
	}
	n := int64(len(rest))
	ss.shed.Add(n)
	s.counters.AddShed(n)
	if ss.shard != nil {
		ss.shard.c.shed.Add(n)
	}
	trace.Emit(trace.KindShed, s.traceNodeName(), "teardown", -1, n)
	for _, fr := range rest {
		fr.release()
	}
}

// writeLoop drains the session queue onto the connection, flushing up to
// writerBatch records per vectored write in the amortized rung and exactly
// one in the per-record rung.
func (s *Server) writeLoop(ss *session) {
	batchCap := 1
	if s.cfg.Fanout == FanoutAmortized {
		batchCap = min(writerBatch, s.cfg.QueueDepth)
	}
	batch := make([]*frameRef, batchCap)
	// Traced sessions interleave a 12-byte prelude buffer before every frame
	// in the vectored write, so bufs holds two entries per record.
	bufs := make(net.Buffers, 0, 2*batchCap)
	var preludes []byte
	if s.traced {
		preludes = make([]byte, batchCap*recordPreludeLen)
	}
	for {
		n := ss.q.popBatch(batch)
		if n == 0 {
			select {
			case <-ss.q.bell:
				continue
			case <-ss.stop:
				return
			}
		}
		ss.shard.signalConsumed()
		// The flush span parents under the first frame's round — batches
		// usually drain in round order, so the attribution error is at most
		// one round boundary per flush.
		wsp := stageRecordSend.StartTraced(s.traceCtx(trace.SpanID(batch[0].round), batch[0].seg))
		sentN, sentBytes, err := s.writeFrames(ss, batch[:n], &bufs, preludes)
		wsp.End()
		if sentN > 0 {
			ss.sent.Add(int64(sentN))
			ss.bytes.Add(sentBytes)
			s.counters.AddSent(int64(sentN), sentBytes)
			ss.shard.c.sent.Add(int64(sentN))
			ss.shard.c.bytes.Add(sentBytes)
		}
		if dropped := int64(n - sentN); dropped > 0 {
			ss.shed.Add(dropped)
			s.counters.AddShed(dropped)
			ss.shard.c.shed.Add(dropped)
			trace.Emit(trace.KindShed, s.traceNodeName(), "write_failed", -1, dropped)
		}
		for i := 0; i < n; i++ {
			batch[i].release()
			batch[i] = nil
		}
		if err != nil {
			return
		}
	}
}

// writeFrames flushes frs in one vectored write (TCP connections use a
// single writev per attempt) under the session's write deadline, resuming
// partial writes. A flush that times out gets WriteRetries extra deadline
// windows (retry-then-drop); any other error, or exhausting the budget,
// fails the session. It returns how many frames were fully written and
// their byte count — on failure the remainder is the caller's to shed.
func (s *Server) writeFrames(ss *session, frs []*frameRef, scratch *net.Buffers, preludes []byte) (int, int64, error) {
	bufs := (*scratch)[:0]
	total := 0
	preludeLen := 0
	if s.traced {
		preludeLen = recordPreludeLen
	}
	for i, fr := range frs {
		if preludeLen > 0 {
			p := preludes[i*recordPreludeLen : (i+1)*recordPreludeLen]
			putRecordPrelude(p, trace.SpanID(fr.round))
			bufs = append(bufs, p)
		}
		bufs = append(bufs, fr.buf)
		total += preludeLen + len(fr.buf)
	}
	written := 0
	retries := s.cfg.WriteRetries
	for written < total {
		if s.cfg.WriteDeadline > 0 {
			ss.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
		}
		n, err := bufs.WriteTo(ss.conn)
		written += int(n)
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && retries > 0 {
			retries--
			continue
		}
		sentN, sentBytes, partial := framesDone(frs, written, preludeLen)
		if partial {
			err = fmt.Errorf("%w: %d of %d bytes: %v", ErrShortWrite, written, total, err)
		}
		return sentN, sentBytes, err
	}
	return len(frs), int64(total), nil
}

// framesDone maps a written byte count onto the frame sequence: how many
// frames the bytes fully cover, their summed wire length (preludes included),
// and whether the count ends inside a frame.
func framesDone(frs []*frameRef, written, preludeLen int) (int, int64, bool) {
	var k int
	var bytes int64
	for _, fr := range frs {
		l := preludeLen + len(fr.buf)
		if written < l {
			return k, bytes, written > 0
		}
		k++
		bytes += int64(l)
		written -= l
	}
	return k, bytes, false
}

func (sh *pumpShard) signalWake() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

func (sh *pumpShard) signalConsumed() {
	select {
	case sh.consumed <- struct{}{}:
	default:
	}
}

func (s *Server) startPumps() {
	s.pumpOnce.Do(func() {
		for _, sh := range s.shards {
			s.pumpWG.Add(1)
			go sh.run()
		}
		if s.cfg.Brownout.Interval > 0 {
			s.pumpWG.Add(1)
			go s.runBrownout()
		}
	})
}

// effectivePace is the pump-round floor after brownout: the configured Pace,
// raised to the brownout PacedDelay from BrownoutPaced up.
func (s *Server) effectivePace() time.Duration {
	pace := s.cfg.Pace
	if BrownoutRung(s.brownoutRung.Load()) >= BrownoutPaced && s.cfg.Brownout.PacedDelay > pace {
		pace = s.cfg.Brownout.PacedDelay
	}
	return pace
}

// run is one shard's record loop: it pulls a batch from the shard's source
// for each segment in turn and fans the framed records out to every shard
// session's queue without ever blocking on a client. When no session can
// take a block (every queue full) the pump parks briefly and the wait is
// charged to the encode-stall counters; when no session exists at all it
// sleeps until one arrives, with nothing charged. A dry source (a relay
// whose recoders have no rank yet) parks the pump briefly without charging
// a stall.
func (sh *pumpShard) run() {
	s := sh.s
	defer s.pumpWG.Done()
	segments := sh.src.Info().Segments
	segIdx := sh.id % segments // stagger shards across segments
	live := make([]*session, 0, 16)
	frames := make([]*frameRef, 0, s.cfg.EncodeBatch)
	alloc := s.frames.allocBuf
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		sh.mu.Lock()
		live = live[:0]
		for ss := range sh.sessions {
			live = append(live, ss)
		}
		sh.mu.Unlock()
		if len(live) == 0 {
			select {
			case <-sh.wake:
			case <-s.stop:
				return
			}
			continue
		}

		// A traced pump opens a round span per non-empty batch: its ID is the
		// wire prelude of every record it produced and the parent of the
		// encode and queue-offer child spans. Spans of dry rounds are simply
		// never ended, so idle parking does not flood the ring.
		seg := segIdx
		round := stageRound.StartTraced(s.traceCtx(s.rootSpan.ID(), int32(seg)))
		enc := stageEncode.StartTraced(s.traceCtx(round.ID(), int32(seg)))
		recs := sh.src.Records(seg, s.cfg.EncodeBatch, alloc)
		segIdx = (segIdx + 1) % segments
		if len(recs) == 0 {
			// Nothing to say for this segment yet. Park briefly — this is
			// source starvation, not client backpressure, so no stall is
			// charged.
			select {
			case <-s.stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		enc.End()
		s.counters.AddEncoded(int64(len(recs)))
		sh.c.encoded.Add(int64(len(recs)))

		frames = frames[:0]
		for _, rec := range recs {
			fr := s.frames.wrap(rec)
			fr.round = uint64(round.ID())
			fr.seg = int32(seg)
			frames = append(frames, fr)
		}
		delivered := sh.fanOut(frames, live)
		round.End()
		// Drop the pump's own reference; queued copies keep the frames
		// alive until their writers flush or shed them.
		for i := range frames {
			frames[i].release()
			frames[i] = nil
		}
		if !delivered {
			// Backpressure: every queue is full. Park until a writer drains
			// a record (or briefly, as a backstop) and charge the wait as
			// encoder stall time.
			t0 := time.Now()
			stopped := false
			select {
			case <-sh.consumed:
			case <-s.stop:
				stopped = true
			case <-time.After(2 * time.Millisecond):
			}
			d := time.Since(t0)
			s.counters.AddEncodeStall(d)
			sh.c.addStall(d)
			if stopped {
				return
			}
		}
		if pace := s.effectivePace(); pace > 0 {
			select {
			case <-s.stop:
				return
			case <-time.After(pace):
			}
		}
	}
}

// fanOut offers the round's frames to every live session and reports whether
// any session accepted at least one record. FanoutAmortized takes one bulk
// offer (one lock, one batched counter update) per session per round;
// FanoutPerRecord replays the original per-record cost profile. frames is
// non-empty; each queue-offer span parents under its frames' pump round.
func (sh *pumpShard) fanOut(frames []*frameRef, live []*session) bool {
	s := sh.s
	delivered := false
	if s.cfg.Fanout == FanoutPerRecord {
		one := make([]*frameRef, 1)
		var shedTotal int64
		for _, fr := range frames {
			one[0] = fr
			osp := stageQueueOffer.StartTraced(s.traceCtx(trace.SpanID(fr.round), fr.seg))
			for _, ss := range live {
				ss.offered.Add(1)
				s.counters.AddOffered(1)
				sh.c.offered.Add(1)
				if ss.q.offerBatch(one) == 1 {
					delivered = true
				} else {
					ss.shed.Add(1)
					s.counters.AddShed(1)
					sh.c.shed.Add(1)
					shedTotal++
				}
			}
			osp.End()
		}
		if shedTotal > 0 {
			trace.Emit(trace.KindShed, s.traceNodeName(), "queue_full", -1, shedTotal)
		}
		return delivered
	}
	nf := int64(len(frames))
	var roundOffered, roundShed int64
	osp := stageQueueOffer.StartTraced(s.traceCtx(trace.SpanID(frames[0].round), frames[0].seg))
	for _, ss := range live {
		acc := int64(ss.q.offerBatch(frames))
		ss.offered.Add(nf)
		if acc < nf {
			ss.shed.Add(nf - acc)
			roundShed += nf - acc
		}
		if acc > 0 {
			delivered = true
		}
		roundOffered += nf
	}
	osp.End()
	s.counters.AddOffered(roundOffered)
	s.counters.AddShed(roundShed)
	sh.c.offered.Add(roundOffered)
	sh.c.shed.Add(roundShed)
	if roundShed > 0 {
		trace.Emit(trace.KindShed, s.traceNodeName(), "queue_full", -1, roundShed)
	}
	return delivered
}

// frameRecord marshals a coded block as an XNC1 record with its length
// prefix into one buffer from alloc (nil: plain make).
func frameRecord(b *rlnc.CodedBlock, alloc func(int) []byte) ([]byte, error) {
	return frameBlock(b, false, alloc)
}

// frameSystematicRecord frames a coded block in the systematic session's
// per-block encoding: the compact XNC2 GF(2) format for binary blocks
// (systematic sweep and XOR repair), XNC1 for the dense tail.
func frameSystematicRecord(b *rlnc.CodedBlock, alloc func(int) []byte) ([]byte, error) {
	return frameBlock(b, b.IsBinary(), alloc)
}

// frameBlock writes the length prefix and marshals the body behind it in
// one buffer, so each record is built exactly once, in place.
func frameBlock(b *rlnc.CodedBlock, xor bool, alloc func(int) []byte) ([]byte, error) {
	size := b.WireSize()
	if xor {
		size = rlnc.XorWireSize(b.Params())
	}
	var rec []byte
	if alloc != nil {
		rec = alloc(4 + size)[:4]
	} else {
		rec = make([]byte, 4, 4+size)
	}
	binary.BigEndian.PutUint32(rec, uint32(size))
	if xor {
		return b.AppendBinaryXor(rec)
	}
	return b.AppendBinary(rec)
}

// Snapshot copies the server's aggregate counters, each shard's slice of
// them, and the state of every live session.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	snap := Snapshot{
		Version:             SnapshotVersion,
		Mode:                s.Mode(),
		SessionsTotal:       s.sessionsTotal.Load(),
		SessionsRejected:    s.sessionsRejected.Load(),
		SessionSeconds:      time.Duration(s.sessionSecs.Load()).Seconds(),
		AdmissionBusy:       s.admissionBusy.Load(),
		AdmissionRedirected: s.admissionRedirected.Load(),
		BrownoutRung:        int(s.brownoutRung.Load()),
		BrownoutTransitions: s.brownoutTransitions.Load(),
		Draining:            draining,
		CounterView:         s.counters.View(),
	}
	snap.Shards = make([]ShardSnapshot, len(s.shards))
	snap.PerSession = make([]SessionSnapshot, 0, 16)
	for i, sh := range s.shards {
		sh.mu.Lock()
		snap.Shards[i] = ShardSnapshot{
			Shard:       sh.id,
			Sessions:    len(sh.sessions),
			CounterView: sh.c.view(),
		}
		for ss := range sh.sessions {
			snap.PerSession = append(snap.PerSession, SessionSnapshot{
				ID:       ss.id,
				Shard:    sh.id,
				Addr:     remoteAddr(ss.conn),
				QueueLen: ss.q.len(),
				QueueCap: ss.q.cap(),
				Offered:  ss.offered.Load(),
				Sent:     ss.sent.Load(),
				Shed:     ss.shed.Load(),
				Bytes:    ss.bytes.Load(),
				Duration: time.Since(ss.started),
			})
		}
		sh.mu.Unlock()
		snap.Sessions += snap.Shards[i].Sessions
	}
	return snap
}

func remoteAddr(c net.Conn) string {
	if a := c.RemoteAddr(); a != nil {
		return a.String()
	}
	return ""
}

// Shutdown stops accepting, closes the registered listeners and every live
// connection, and waits for the sessions, decision writers, and pumps to
// exit. It is idempotent and safe to race with Serve, Drain, and itself:
// every call blocks until the teardown is complete. For a teardown that lets
// in-flight sessions finish first, use Drain.
func (s *Server) Shutdown() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for ss := range sh.sessions {
			ss.conn.Close()
		}
		sh.mu.Unlock()
	}
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.stop)
	}
	// Ensure no pump can start after this point, even if Serve was never
	// called; a started pump set observes s.stop and exits.
	s.pumpOnce.Do(func() {})
	s.pumpWG.Wait()
	s.wg.Wait()
	s.auxWG.Wait()
	if !alreadyClosed {
		s.rootSpan.End()
	}
}

// closeSessions force-closes every live session connection without marking
// the server closed — the drain-deadline hammer.
func (s *Server) closeSessions() {
	s.mu.Lock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for ss := range sh.sessions {
			ss.conn.Close()
		}
		sh.mu.Unlock()
	}
	s.mu.Unlock()
}

// Drain gracefully retires the server: it keeps accepting connections but
// answers every new handshake with REDIRECT to redirectAddr (BUSY when
// redirectAddr is empty), lets in-flight sessions run to completion — an
// RLNC client hangs up on its own at full rank — and then shuts down. If ctx
// ends first the remaining sessions are force-closed, the shutdown still
// completes, and ctx.Err() is returned; the shed-at-teardown accounting
// keeps the offered == sent + shed ledger exact either way.
//
// Drain is idempotent and safe to race with Shutdown, Serve, and itself: a
// concurrent Drain waits for the first one to finish, and Drain on a
// shut-down server is a no-op.
func (s *Server) Drain(ctx context.Context, redirectAddr string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.draining {
		done := s.drainDone
		s.mu.Unlock()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.draining = true
	s.drainAddr = redirectAddr
	done := make(chan struct{})
	s.drainDone = done
	joined := s.joined
	s.mu.Unlock()
	defer close(done)
	trace.Emit(trace.KindDrain, s.traceNodeName(), redirectAddr, -1, int64(joined))

	// No session wg.Add can happen once draining is set (the admission path
	// rejects under the same mutex), so waiting here cannot race a late Add.
	waited := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(waited)
	}()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = ctx.Err()
		s.closeSessions()
		<-waited
	}
	s.Shutdown()
	return err
}
