package mesh

import (
	"context"
	"fmt"
	"net"
	"sync"

	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// Relay stage spans: one absorb span per upstream record fed to a recoder,
// one recode span per batch of emissions drawn from a recoder with rank
// (dry polls are not timed). Free with no obs sink and no flight recorder
// installed; under a traced upstream the recode span also lands on the
// flight ring.
var (
	stageRelayAbsorb = obs.StageOf("mesh.relay_absorb")
	stageRelayRecode = obs.TracedStage("mesh.recode", "recode")
)

// RelayConfig configures one recoding relay.
type RelayConfig struct {
	// ID names the relay in the control plane.
	ID string
	// Upstream dials the tier above (the origin, in the standard two-tier
	// topology). The relay's resilient fetcher owns reconnection.
	Upstream netio.DialFunc
	// Listener is where the relay serves downstream. The relay takes
	// ownership and closes it on Close.
	Listener net.Listener
	// XorRecode constrains the relay to GF(2) recombinations through the
	// XOR kernels (rlnc.WithXorRecode) and re-declares the downstream
	// session in ModeSystematic so binary emissions travel in the compact
	// XNC2 encoding. Default: dense GF(2^8) recombinations in ModeDense.
	XorRecode bool
	// Seed drives the relay's recombination coefficient streams.
	Seed int64
	// FetchOpts / ServerOpts extend the relay's upstream fetcher and
	// downstream server (chaos injection, metrics, queue tuning).
	FetchOpts  []netio.FetcherOption
	ServerOpts []netio.ServerOption
	// Tapped / Emitted, when non-nil, accumulate upstream records absorbed
	// and downstream blocks recoded — shared mesh-wide counters.
	Tapped, Emitted *obs.Counter
}

// Relay is one recoding node: a resilient upstream fetch whose record tap
// feeds per-segment rlnc.Recoders, and a downstream netio source server
// whose records are fresh recombinations drawn from them. The relay never
// decodes — emitted coefficients are already re-expressed in terms of the
// original source blocks, so leaves are oblivious to the hop (paper
// Sec. 2). It starts serving a segment after the very first upstream record
// for it lands, and keeps serving from accumulated rank even if its
// upstream dies.
type Relay struct {
	id  string
	cfg RelayConfig

	mu       sync.Mutex
	ln       net.Listener  // current downstream listener; swapped by Restart
	srv      *netio.Server // current downstream server; swapped by Restart
	retired  netio.CounterView
	info     netio.SessionInfo // learned from the upstream handshake
	recoders []*rlnc.Recoder
	emit     rlnc.CodedBlock // reused by every recoder emission; framed before the next

	// serveCtx bounds every downstream server the relay ever starts,
	// including post-Restart replacements.
	serveCtx context.Context

	ready       chan struct{} // closed once info and recoders exist
	upFetch     *netio.Fetcher
	fetchCancel context.CancelFunc
	fetchDone   chan struct{}
	fetchErr    error
	closeOnce   sync.Once
}

// StartRelay launches a relay: it begins the upstream fetch, waits for the
// first successful handshake (which defines the object the relay will
// re-declare downstream), then starts the downstream server on
// cfg.Listener. It fails if ctx ends before the upstream ever answers.
func StartRelay(ctx context.Context, cfg RelayConfig) (*Relay, error) {
	if cfg.Upstream == nil || cfg.Listener == nil {
		return nil, fmt.Errorf("mesh: relay %q needs an upstream dialer and a listener", cfg.ID)
	}
	r := &Relay{
		id:        cfg.ID,
		cfg:       cfg,
		ln:        cfg.Listener,
		serveCtx:  ctx,
		ready:     make(chan struct{}),
		fetchDone: make(chan struct{}),
	}

	fctx, cancel := context.WithCancel(ctx)
	r.fetchCancel = cancel
	opts := append([]netio.FetcherOption{
		netio.WithSessionHook(r.onSession),
		netio.WithRecordTap(r.onRecord),
		netio.WithFetchTrace(cfg.ID + ".fetch"),
	}, cfg.FetchOpts...)
	f := netio.NewFetcher(cfg.Upstream, opts...)
	r.upFetch = f
	go func() {
		defer close(r.fetchDone)
		// The fetch ends when the relay holds full rank for every segment
		// (or fctx is cancelled); the relay then keeps serving from its
		// recoders with the upstream connection released.
		_, r.fetchErr = f.Fetch(fctx)
	}()

	select {
	case <-r.ready:
	case <-ctx.Done():
		r.Close()
		return nil, fmt.Errorf("mesh: relay %q never reached its upstream: %w", cfg.ID, ctx.Err())
	}

	// A traced upstream handshake propagates through the relay: the
	// downstream server inherits the transfer's trace ID (its root span
	// parenting under the origin's), and every server a later Restart builds
	// inherits it too, because the option joins the retained ServerOpts.
	if tr, root, ok := f.TraceContext(); ok {
		r.cfg.ServerOpts = append(r.cfg.ServerOpts, netio.WithInheritedTrace(cfg.ID, tr, root))
	}
	srv, err := netio.NewSourceServer((*relaySource)(r), r.cfg.ServerOpts...)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.srv = srv
	go srv.Serve(ctx, r.ln)
	return r, nil
}

// onSession captures the upstream session shape on the first handshake and
// builds the per-segment recoders. Later handshakes are reconnects of the
// same session (the fetcher enforces header identity) and are ignored.
func (r *Relay) onSession(si netio.SessionInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recoders != nil {
		return
	}
	downstream := si
	if r.cfg.XorRecode {
		downstream.Mode = netio.ModeSystematic
	} else {
		downstream.Mode = netio.ModeDense
	}
	recs := make([]*rlnc.Recoder, si.Segments)
	for i := range recs {
		opts := []rlnc.Option{rlnc.WithSeed(r.cfg.Seed + int64(i)*7919)}
		if r.cfg.XorRecode {
			opts = append(opts, rlnc.WithXorRecode())
		}
		rec, err := rlnc.NewRecoder(si.Params, opts...)
		if err != nil {
			// The params came from a handshake the fetcher validated.
			panic(fmt.Sprintf("mesh: recoder for handshake params: %v", err))
		}
		recs[i] = rec
	}
	r.info = downstream
	r.recoders = recs
	close(r.ready)
}

// onRecord feeds one upstream record into its segment's recoder. Dependent
// blocks are dropped at the recoder's door; Add clones, so the fetcher may
// reuse the block.
func (r *Relay) onRecord(b *rlnc.CodedBlock) {
	sp := stageRelayAbsorb.Start()
	r.mu.Lock()
	if int(b.SegmentID) < len(r.recoders) {
		r.recoders[b.SegmentID].Add(b) //nolint:errcheck // validated upstream
	}
	r.mu.Unlock()
	sp.End()
	if r.cfg.Tapped != nil {
		r.cfg.Tapped.Inc()
	}
}

// ID returns the relay's control-plane name.
func (r *Relay) ID() string { return r.id }

// Addr returns the relay's current downstream serving address; Restart moves
// it to a fresh listener.
func (r *Relay) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ln.Addr().String()
}

// Info returns the session the relay declares downstream (valid once
// StartRelay has returned).
func (r *Relay) Info() netio.SessionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info
}

// TotalRank sums the relay's recoder ranks across segments — the health
// checker's progress probe.
func (r *Relay) TotalRank() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, rec := range r.recoders {
		total += rec.Rank()
	}
	return total
}

// SegmentRanks returns the per-segment recoder ranks.
func (r *Relay) SegmentRanks() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ranks := make([]int, len(r.recoders))
	for i, rec := range r.recoders {
		ranks[i] = rec.Rank()
	}
	return ranks
}

// Server exposes the current downstream server for snapshots; nil until
// StartRelay returns.
func (r *Relay) Server() *netio.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv
}

// Restart gracefully cycles the relay's downstream server: the serving side
// drains — new handshakes are answered with a REDIRECT to redirectAddr (BUSY
// when empty), in-flight sessions run to rank completion, bounded by ctx —
// then a fresh listener and server over the same recoders take its place.
// The recoders, and therefore all accumulated rank, survive the restart; the
// serving address changes, so the caller re-registers the relay with the
// control plane (Pool.Rejoin). The drained server's traffic ledger is folded
// into Ledger before the swap, keeping offered == sent + shed exact across
// the relay's whole history. Returns the new serving address.
func (r *Relay) Restart(ctx context.Context, redirectAddr string) (string, error) {
	r.mu.Lock()
	oldSrv, oldLn := r.srv, r.ln
	r.mu.Unlock()
	if err := oldSrv.Drain(ctx, redirectAddr); err != nil {
		return "", fmt.Errorf("mesh: relay %q drain: %w", r.id, err)
	}
	oldLn.Close()
	drained := oldSrv.Snapshot().CounterView

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("mesh: relay %q relisten: %w", r.id, err)
	}
	srv, err := netio.NewSourceServer((*relaySource)(r), r.cfg.ServerOpts...)
	if err != nil {
		ln.Close()
		return "", fmt.Errorf("mesh: relay %q restart: %w", r.id, err)
	}
	r.mu.Lock()
	// Fold and swap in one critical section so a concurrent Ledger never
	// double-counts the drained server or misses it.
	r.retired = addCounterViews(r.retired, drained)
	r.srv, r.ln = srv, ln
	ctx = r.serveCtx
	r.mu.Unlock()
	go srv.Serve(ctx, ln)
	return ln.Addr().String(), nil
}

// Ledger returns the relay's downstream traffic totals accumulated across
// every server it has run, including servers retired by Restart. After all
// sessions end (drain or shutdown) the ledger balances exactly:
// BlocksOffered == BlocksSent + BlocksShed.
func (r *Relay) Ledger() netio.CounterView {
	r.mu.Lock()
	retired, srv := r.retired, r.srv
	r.mu.Unlock()
	// Snapshot outside r.mu: the server's pump may be blocked in
	// relaySource.Records, which holds r.mu while the snapshot walks the
	// shard locks.
	if srv == nil {
		return retired
	}
	return addCounterViews(retired, srv.Snapshot().CounterView)
}

// addCounterViews merges two traffic ledgers: counters add, the stall
// high-water mark takes the max.
func addCounterViews(a, b netio.CounterView) netio.CounterView {
	return netio.CounterView{
		BlocksEncoded:  a.BlocksEncoded + b.BlocksEncoded,
		BlocksOffered:  a.BlocksOffered + b.BlocksOffered,
		BlocksSent:     a.BlocksSent + b.BlocksSent,
		BlocksShed:     a.BlocksShed + b.BlocksShed,
		BytesSent:      a.BytesSent + b.BytesSent,
		EncodeStall:    a.EncodeStall + b.EncodeStall,
		MaxEncodeStall: max(a.MaxEncodeStall, b.MaxEncodeStall),
	}
}

// Close tears the relay down: upstream fetch cancelled, downstream server
// shut down, listener closed. Idempotent.
func (r *Relay) Close() {
	r.closeOnce.Do(func() {
		r.fetchCancel()
		r.mu.Lock()
		srv, ln := r.srv, r.ln
		r.mu.Unlock()
		if srv != nil {
			srv.Shutdown()
		}
		ln.Close()
		<-r.fetchDone
	})
}

// relaySource adapts a Relay to netio.RecordSource: each Records call draws
// fresh recombinations from the segment's recoder into the relay's one
// reusable block and frames each straight into the serving server's frame
// pool, so an emitted record costs no allocation of its own. A segment with
// no rank yet returns nothing and the server pump backs off briefly.
type relaySource Relay

func (rs *relaySource) Info() netio.SessionInfo { return (*Relay)(rs).Info() }

func (rs *relaySource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	r := (*Relay)(rs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if seg >= len(r.recoders) || r.recoders[seg].Rank() == 0 {
		return nil
	}
	// The recode span parents under the upstream pump round that most
	// recently fed the recoders: the causal link tying a relay's emissions
	// back to origin encode work across the tier boundary. Dry polls above
	// never open a span, so an idle relay does not flood the ring.
	tr, _, _ := r.upFetch.TraceContext()
	sp := stageRelayRecode.StartTraced(obs.Trace{Node: r.id, ID: tr, Parent: r.upFetch.LastRoundSpan(), Seg: int32(seg)})
	defer sp.End()
	rec := r.recoders[seg]
	out := make([][]byte, 0, batch)
	for i := 0; i < batch; i++ {
		if err := rec.EmitInto(&r.emit); err != nil {
			break
		}
		framed, err := netio.FrameRecordWith(&r.emit, r.info.Mode, alloc)
		if err != nil {
			continue
		}
		out = append(out, framed)
	}
	if r.cfg.Emitted != nil {
		r.cfg.Emitted.Add(int64(len(out)))
	}
	return out
}
