package netio

import (
	"fmt"
	"math/rand"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// FanoutMode selects how the encoder pump hands records to session queues —
// the serving-side optimization ladder, kept as selectable rungs so the load
// harness can measure each against the next (the serving analogue of the
// host-codec kernel rungs).
type FanoutMode uint8

const (
	// FanoutAmortized (the default) offers each pump round to a session in
	// one bulk operation — one lock and one batched counter update per
	// session per round instead of per record — and lets writers drain their
	// queue in vectored batches (one writev-style flush for many records).
	FanoutAmortized FanoutMode = iota
	// FanoutPerRecord is the baseline rung: one offer per record per session
	// and one wire write per record, the original single-pump cost profile.
	// It exists so capacity ladders can measure what amortization buys.
	FanoutPerRecord
)

func (m FanoutMode) String() string {
	switch m {
	case FanoutAmortized:
		return "amortized"
	case FanoutPerRecord:
		return "record"
	default:
		return fmt.Sprintf("FanoutMode(%d)", uint8(m))
	}
}

// ParseFanoutMode is the inverse of FanoutMode.String.
func ParseFanoutMode(s string) (FanoutMode, error) {
	switch s {
	case "amortized":
		return FanoutAmortized, nil
	case "record":
		return FanoutPerRecord, nil
	default:
		return 0, fmt.Errorf("netio: unknown fanout mode %q", s)
	}
}

// serverConfig is the serving configuration the ServerOptions write to.
// Fields marked "0 → default" are resolved by normalized; every other zero
// value is meaningful (no write deadline, no session cap, no pacing) and is
// kept as given.
type serverConfig struct {
	QueueDepth    int           // per-session send queue, records (0 → 64, negative → 1)
	WriteDeadline time.Duration // per-flush deadline; zero disables
	WriteRetries  int           // extra deadline windows before a drop (negative → 0)
	EncodeBatch   int           // blocks per segment per pump round (0 → max(4, n/4))
	MaxSessions   int           // concurrent-session cap across shards; zero = unlimited
	Seed          int64         // base coefficient-stream seed (0 → 1)
	Mode          WireMode      // NewSourceServer overrides it with the source's mode
	Pace          time.Duration // pump-round floor; zero leaves pumps unpaced
	PumpShards    int           // independent encoder pumps (0 → 1)
	Fanout        FanoutMode
	RetryAfter    time.Duration // BUSY retry hint (0 → 250ms)
	Brownout      BrownoutConfig
	Metrics       *obs.Registry
	TraceNode     string
	TraceID       trace.TraceID
	TraceParent   trace.SpanID
}

// serverDefaults holds the only defaults whose zero value means
// something else: a 5s write deadline (zero disables deadlines) with one
// retry (zero drops on the first miss). normalized resolves the rest.
func serverDefaults() serverConfig {
	return serverConfig{WriteDeadline: 5 * time.Second, WriteRetries: 1}
}

// validate rejects what no option value can mean: an unknown wire or fanout
// mode, or a negative shard count. Other out-of-range numbers are not
// errors — normalized clamps or defaults them.
func (c *serverConfig) validate() error {
	if c.Mode > ModeSystematic {
		return fmt.Errorf("netio: unknown wire mode %d", c.Mode)
	}
	if c.Fanout > FanoutPerRecord {
		return fmt.Errorf("netio: unknown fanout mode %d", c.Fanout)
	}
	if c.PumpShards < 0 {
		return fmt.Errorf("netio: negative pump shards %d", c.PumpShards)
	}
	return nil
}

// normalized returns a copy with every "0 → default" field resolved, using
// blockCount for the batch default.
func (c serverConfig) normalized(blockCount int) serverConfig {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 1
	}
	if c.WriteRetries < 0 {
		c.WriteRetries = 0
	}
	if c.EncodeBatch <= 0 {
		// Default: a quarter generation per round, so late-joining clients
		// wait at most a short interleave for every segment, but at least 4
		// to amortize dispatch.
		c.EncodeBatch = max(4, blockCount/4)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PumpShards == 0 {
		c.PumpShards = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.Brownout.Interval > 0 {
		c.Brownout = c.Brownout.withDefaults()
	}
	return c
}

// ServerOption configures a Server. Options are the only way to configure
// one: NewServer and NewSourceServer apply them in order over the defaults
// and reject an unknown wire or fanout mode or a negative shard count.
type ServerOption func(*serverConfig)

// WithQueueDepth bounds each session's send queue to n coded-block records
// (default 64; negative → 1). When a client drains slower than the pump
// produces, records beyond the bound are shed instead of stalling the pump —
// RLNC makes the loss harmless, the peer only needs enough blocks, not
// specific ones.
func WithQueueDepth(n int) ServerOption {
	return func(c *serverConfig) { c.QueueDepth = n }
}

// WithWriteDeadline bounds every record flush to d (default 5s); a flush
// that misses it is retried, resuming at the byte where it stopped, up to
// the WithWriteRetries budget, and the session is then dropped. Zero
// disables deadlines.
func WithWriteDeadline(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.WriteDeadline = d }
}

// WithWriteRetries sets how many extra deadline windows a timed-out flush
// gets before the session is dropped (default 1: retry once, then drop;
// negative → 0).
func WithWriteRetries(n int) ServerOption {
	return func(c *serverConfig) { c.WriteRetries = n }
}

// WithEncodeBatch sets how many coded blocks each pump generates per segment
// per round. Larger batches amortize encoder dispatch; smaller ones tighten
// the round-robin interleave across segments. The default, max(4, n/4) for
// n blocks per segment, adapts to the segment's block count.
func WithEncodeBatch(n int) ServerOption {
	return func(c *serverConfig) { c.EncodeBatch = n }
}

// WithMaxSessions caps concurrent sessions across all shards; connections
// beyond the cap get a BUSY admission decision and are counted in
// Snapshot.SessionsRejected. Zero, the default, means unlimited.
func WithMaxSessions(n int) ServerOption {
	return func(c *serverConfig) { c.MaxSessions = n }
}

// WithServePace floors the interval between pump rounds at d, bounding each
// shard's aggregate emission rate at batch-size records per d regardless of
// CPU headroom. It models a capacity-constrained origin uplink — the regime
// where a recoding relay tier multiplies effective serving capacity — and
// keeps capacity comparisons meaningful on machines where every tier is
// otherwise compute-bound. With S shards the server models S engines. Zero
// (the default) leaves the pumps unpaced.
func WithServePace(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.Pace = d }
}

// WithServerSeed fixes the base seed of the pump coefficient streams
// (default 1; zero → 1), making the served block sequence reproducible.
// Shard i derives its stream from seed and i, so a single-shard server
// reproduces the unsharded block sequence exactly.
func WithServerSeed(seed int64) ServerOption {
	return func(c *serverConfig) { c.Seed = seed }
}

// WithWireMode sets the session coding discipline the server declares in
// every handshake (default ModeDense). In ModeSystematic the pumps cycle
// each segment through the systematic + GF(2) XOR repair + dense tail
// schedule of rlnc.SystematicEncoder, framing binary blocks in the compact
// XNC2 encoding; queueing, shedding, deadlines, and reconnect semantics are
// unchanged. NewSourceServer ignores it: the source declares the mode.
func WithWireMode(m WireMode) ServerOption {
	return func(c *serverConfig) { c.Mode = m }
}

// WithPumpShards splits the serving load across n independent encoder pumps
// (default 1; zero → 1, negative is an error). Sessions join the
// least-loaded shard at handshake; each shard owns its sessions, its record
// source, and its slice of the accounting, rolled up in Snapshot.
func WithPumpShards(n int) ServerOption {
	return func(c *serverConfig) { c.PumpShards = n }
}

// WithFanout selects the pump-to-queue hand-off rung; see FanoutMode.
func WithFanout(m FanoutMode) ServerOption {
	return func(c *serverConfig) { c.Fanout = m }
}

// WithRetryAfter sets the hint carried in BUSY admission decisions (session
// cap, brownout reject, address-less drain): how long the client should
// wait before redialing (default 250ms). The resilient Fetcher floors its
// next backoff sleep at this hint.
func WithRetryAfter(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.RetryAfter = d }
}

// WithBrownout enables the overload controller when cfg.Interval > 0: every
// interval the server samples its pressure signal (pump stall fraction,
// aggregate queue occupancy, shed fraction) and walks the degradation
// ladder — pace the pumps, thin the systematic schedule, reject new sessions
// with BUSY — with hysteresis on the way down. See BrownoutConfig and
// BrownoutRung.
func WithBrownout(cfg BrownoutConfig) ServerOption {
	return func(c *serverConfig) { c.Brownout = cfg }
}

// WithMetricsRegistry registers the server's counters and session gauges
// into reg under the "netio" prefix, so the server scrapes alongside every
// other obs surface. Each registry admits one server: NewServer fails on a
// second registration with the same names.
func WithMetricsRegistry(reg *obs.Registry) ServerOption {
	return func(c *serverConfig) { c.Metrics = reg }
}

// WithServerTrace labels the server's spans and flight events with node
// and enables trace propagation when the process-global trace recorder
// (obs/trace) is enabled at construction: a fresh trace is minted and
// declared to every client through the handshake (an XNCT record), and
// every record carries its pump round's span ID.
func WithServerTrace(node string) ServerOption {
	return func(c *serverConfig) { c.TraceNode = node }
}

// WithInheritedTrace is WithServerTrace for a mid-tier server (a mesh
// relay): instead of minting a fresh trace it joins tr, and its root span
// is parented under the upstream server's root, so one generation's spans
// link origin → relay → leaf.
func WithInheritedTrace(node string, tr trace.TraceID, parent trace.SpanID) ServerOption {
	return func(c *serverConfig) {
		c.TraceNode = node
		c.TraceID = tr
		c.TraceParent = parent
	}
}

// fetcherConfig is the download-client configuration the FetcherOptions
// write to. Zero backoff fields are resolved by normalized; every other zero
// value is meaningful and kept.
type fetcherConfig struct {
	MaxAttempts   int           // dial budget, counting the first; zero = unlimited
	FetchTimeout  time.Duration // wall-clock budget; zero = none
	Redirector    *Redirector
	BackoffBase   time.Duration // first reconnect delay (0 → 50ms)
	BackoffMax    time.Duration // reconnect delay cap (0 → 2s)
	Jitter        float64       // backoff jitter fraction in [0, 1]
	Seed          int64         // jitter source seed (0 → random)
	ReconnectHook func(reconnect int, ranks map[uint32]int)
	SessionHook   func(SessionInfo)
	RecordTap     func(*rlnc.CodedBlock)
	ResumeState   []byte
	Metrics       *obs.Registry
	TraceNode     string // "" → "fetch"
}

// fetcherDefaults holds the only default whose zero value means
// something else: 0.5 backoff jitter (zero means no jitter). normalized
// resolves the rest.
func fetcherDefaults() fetcherConfig {
	return fetcherConfig{Jitter: 0.5}
}

// validate rejects a negative attempt budget or fetch timeout, a negative
// or inverted backoff range, and jitter outside [0, 1].
func (c *fetcherConfig) validate() error {
	if c.MaxAttempts < 0 {
		return fmt.Errorf("netio: negative attempt budget %d", c.MaxAttempts)
	}
	if c.FetchTimeout < 0 {
		return fmt.Errorf("netio: negative fetch timeout %v", c.FetchTimeout)
	}
	if c.BackoffBase < 0 || c.BackoffMax < 0 {
		return fmt.Errorf("netio: negative backoff (base %v, max %v)", c.BackoffBase, c.BackoffMax)
	}
	if c.BackoffBase > 0 && c.BackoffMax > 0 && c.BackoffBase > c.BackoffMax {
		return fmt.Errorf("netio: backoff base %v exceeds max %v", c.BackoffBase, c.BackoffMax)
	}
	if c.Jitter < 0 || c.Jitter > 1 {
		return fmt.Errorf("netio: jitter %v outside [0, 1]", c.Jitter)
	}
	return nil
}

// normalized resolves the backoff defaults and the jitter random source.
func (c fetcherConfig) normalized() (fetcherConfig, *rand.Rand) {
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	seed := c.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	return c, rand.New(rand.NewSource(seed))
}

// FetcherOption configures a Fetcher. Options are the only way to configure
// one: NewFetcher applies them in order over the defaults, and Fetch returns
// any validation error before it dials.
type FetcherOption func(*fetcherConfig)

// WithMaxAttempts caps the total number of connection attempts (dials),
// counting the first. Zero, the default, means unlimited: the fetch is
// bounded only by its context. Negative is an error.
func WithMaxAttempts(n int) FetcherOption {
	return func(c *fetcherConfig) { c.MaxAttempts = n }
}

// WithFetchTimeout bounds the whole fetch in wall-clock time: when d
// expires the fetch degrades to a partial FetchResult and ErrFetchTimeout.
// Distinct from WithMaxAttempts: the attempt budget bounds dials, this
// bounds elapsed time, and either limit degrades the fetch to a partial
// result instead of discarding rank. Zero, the default, means no overall
// timeout; negative is an error.
func WithFetchTimeout(d time.Duration) FetcherOption {
	return func(c *fetcherConfig) { c.FetchTimeout = d }
}

// WithRedirector makes the fetch honor REDIRECT admission decisions by
// re-pointing r at the address a draining server names, so a drain walks
// the fetcher to the named survivor on its next dial. Pass the same
// Redirector whose Dial the fetcher uses to have the very next reconnect
// land on the survivor; any control-plane target works.
func WithRedirector(r *Redirector) FetcherOption {
	return func(c *fetcherConfig) { c.Redirector = r }
}

// WithBackoff sets the reconnect backoff schedule: the delay before retry r
// doubles from base, is capped at max, and is then jittered. The schedule
// resets after any session that delivered records. The defaults are 50ms
// doubling to a 2s cap; a zero base or max keeps its default, and a
// negative value or a base above max is an error.
func WithBackoff(base, max time.Duration) FetcherOption {
	return func(c *fetcherConfig) {
		c.BackoffBase = base
		c.BackoffMax = max
	}
}

// WithBackoffJitter sets the jitter fraction j ∈ [0, 1], clamping
// out-of-range values: each delay d is drawn uniformly from
// [d·(1−j), d·(1+j)], still capped at the backoff max. Jitter (default 0.5)
// keeps a fleet of clients that lost the same server from reconnecting in
// lockstep.
func WithBackoffJitter(j float64) FetcherOption {
	return func(c *fetcherConfig) {
		c.Jitter = min(max(j, 0), 1)
	}
}

// WithBackoffSeed fixes the jitter's random source, making the backoff
// schedule reproducible (default: a random seed).
func WithBackoffSeed(seed int64) FetcherOption {
	return func(c *fetcherConfig) { c.Seed = seed }
}

// WithReconnectHook installs fn, run after every successful reconnect
// handshake with the 1-based reconnect number and the per-segment decoder
// ranks carried into the new session. Observability only: the fetch blocks
// until fn returns.
func WithReconnectHook(fn func(reconnect int, ranks map[uint32]int)) FetcherOption {
	return func(c *fetcherConfig) { c.ReconnectHook = fn }
}

// WithSessionHook installs fn, called with the declared SessionInfo after
// every successful handshake (the first connection and each reconnect),
// before any record of that session is read. A mesh relay uses it to learn
// the upstream object's shape so it can re-declare the same object
// downstream. Hooks compose: each WithSessionHook appends, and hooks run
// in installation order. The fetch blocks until fn returns.
func WithSessionHook(fn func(SessionInfo)) FetcherOption {
	return func(c *fetcherConfig) {
		if prev := c.SessionHook; prev != nil {
			c.SessionHook = func(info SessionInfo) { prev(info); fn(info) }
			return
		}
		c.SessionHook = fn
	}
}

// WithRecordTap installs fn, called with every structurally valid coded
// block the fetch receives — after checksum, shape, and segment-range
// checks, before (and regardless of) decoder absorption, so the tap also
// sees blocks that are linearly dependent for this fetcher's decoders.
// Each block is freshly allocated; the tap may retain it. This is the relay
// feed: a mesh relay taps its upstream fetch straight into per-segment
// recoders. Taps compose: each WithRecordTap appends, and taps run in
// installation order. The fetch blocks until fn returns.
func WithRecordTap(fn func(*rlnc.CodedBlock)) FetcherOption {
	return func(c *fetcherConfig) {
		if prev := c.RecordTap; prev != nil {
			c.RecordTap = func(b *rlnc.CodedBlock) { prev(b); fn(b) }
			return
		}
		c.RecordTap = fn
	}
}

// WithResumeState preloads the decoders from a Fetcher.State blob saved by
// an earlier (possibly failed) fetch of the same object, so the new fetch
// starts from the saved per-segment rank instead of zero.
func WithResumeState(state []byte) FetcherOption {
	return func(c *fetcherConfig) { c.ResumeState = state }
}

// WithMetrics registers the fetcher's stat counters into reg under the
// "fetch" prefix. Each registry admits one fetcher; a second registration
// is dropped (the typed stats still work).
func WithMetrics(reg *obs.Registry) FetcherOption {
	return func(c *fetcherConfig) { c.Metrics = reg }
}

// WithFetchTrace labels the fetcher's spans and flight events with node
// (default "fetch"). Spans are emitted only on sessions whose handshake
// negotiated tracing and while the trace recorder is enabled.
func WithFetchTrace(node string) FetcherOption {
	return func(c *fetcherConfig) { c.TraceNode = node }
}
