// Package extremenc is a high-performance random linear network coding
// (RLNC) library — a Go reproduction of "Pushing the Envelope: Extreme
// Network Coding on the GPU" (Shojania & Li, IEEE ICDCS 2009).
//
// The package has three layers:
//
//   - A production host codec: GF(2^8) random linear codes with segments,
//     coded blocks (with a checksummed wire format), progressive
//     Gauss–Jordan decoding, batch invert-then-multiply decoding, recoding
//     at intermediate nodes, and goroutine-parallel encode/decode workers.
//
//   - Simulated testbeds reproducing the paper's evaluation hardware: the
//     NVIDIA GTX 280 / 8800 GT (a functional CUDA-like simulator with a
//     calibrated cycle-cost model: warp occupancy, shared-memory bank
//     conflicts, texture caching, kernel launches) and the 8-core Xeon
//     "Mac Pro" baseline. Every kernel computes real, verified coded data.
//
//   - Deployment components: a network-coded streaming server (live and
//     VoD), and an Avalanche-style P2P distribution simulation with
//     recoding versus forwarding baselines.
//
// Quick start:
//
//	params := extremenc.Params{BlockCount: 128, BlockSize: 4096}
//	seg, _ := extremenc.SegmentFromData(0, params, payload)
//	enc := extremenc.NewEncoder(seg, rng)
//	dec, _ := extremenc.NewDecoder(params)
//	for !dec.Ready() {
//		dec.AddBlock(enc.NextBlock())
//	}
//	recovered, _ := dec.Segment()
//
// The experiment harness behind every figure of the paper is exposed via
// Experiments and the ncbench command; see EXPERIMENTS.md for the
// paper-versus-measured record.
package extremenc

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"

	"extremenc/internal/core"
	"extremenc/internal/cpusim"
	"extremenc/internal/experiments"
	"extremenc/internal/faultnet"
	"extremenc/internal/gf256"
	"extremenc/internal/gpu"
	"extremenc/internal/mesh"
	"extremenc/internal/ncfile"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/p2p"
	"extremenc/internal/rlnc"
	"extremenc/internal/stream"
)

// Core codec types (see internal/rlnc for full documentation).
type (
	// Params is a coding configuration: n blocks of k bytes per segment.
	Params = rlnc.Params
	// Segment is one generation of source data.
	Segment = rlnc.Segment
	// CodedBlock is a coefficient vector plus coded payload, with a
	// checksummed binary wire format.
	CodedBlock = rlnc.CodedBlock
	// Encoder emits random linear combinations of a segment's blocks.
	Encoder = rlnc.Encoder
	// Decoder recovers a segment by progressive Gauss–Jordan elimination.
	Decoder = rlnc.Decoder
	// BatchDecoder recovers a segment by matrix inversion plus multiply.
	BatchDecoder = rlnc.BatchDecoder
	// Recoder emits fresh combinations of received blocks without decoding.
	Recoder = rlnc.Recoder
	// Object is a payload split into consecutive segments.
	Object = rlnc.Object
	// EncodeMode selects full-block or partitioned-block parallelism.
	EncodeMode = rlnc.EncodeMode
)

// Encode partitioning modes (paper Sec. 5.3).
const (
	PartitionedBlock = rlnc.PartitionedBlock
	FullBlock        = rlnc.FullBlock
)

// NewSegment returns a zero-filled segment.
func NewSegment(id uint32, p Params) (*Segment, error) { return rlnc.NewSegment(id, p) }

// SegmentFromData builds a zero-padded segment from data.
func SegmentFromData(id uint32, p Params, data []byte) (*Segment, error) {
	return rlnc.SegmentFromData(id, p, data)
}

// NewEncoder returns a random linear encoder over seg.
func NewEncoder(seg *Segment, rng *rand.Rand, opts ...rlnc.EncoderOption) *Encoder {
	return rlnc.NewEncoder(seg, rng, opts...)
}

// WithDensity makes the encoder draw sparse coefficient vectors.
func WithDensity(d float64) rlnc.EncoderOption { return rlnc.WithDensity(d) }

// CodecOption configures the block-consuming codec constructors
// (NewDecoder, NewBatchDecoder, NewRecoder); see rlnc.Option.
type CodecOption = rlnc.Option

// WithScratch pins a codec to a caller-owned workspace.
func WithScratch(s *rlnc.Scratch) CodecOption { return rlnc.WithScratch(s) }

// WithSeed gives a codec a private deterministic random source (Recoder.Emit).
func WithSeed(seed int64) CodecOption { return rlnc.WithSeed(seed) }

// NewDecoder returns a progressive Gauss–Jordan decoder.
func NewDecoder(p Params, opts ...CodecOption) (*Decoder, error) { return rlnc.NewDecoder(p, opts...) }

// NewBatchDecoder returns an invert-then-multiply decoder.
func NewBatchDecoder(p Params, opts ...CodecOption) (*BatchDecoder, error) {
	return rlnc.NewBatchDecoder(p, opts...)
}

// NewRecoder returns a recoder for intermediate nodes.
func NewRecoder(p Params, opts ...CodecOption) (*Recoder, error) {
	return rlnc.NewRecoder(p, opts...)
}

// Split divides data into coding segments.
func Split(data []byte, p Params) (*Object, error) { return rlnc.Split(data, p) }

// ReassembleSegments rebuilds a payload from decoded segments.
func ReassembleSegments(segs []*Segment, length int, p Params) ([]byte, error) {
	return rlnc.ReassembleSegments(segs, length, p)
}

// EncodeBatchInto computes dsts[b] = Σᵢ coeffs[b][i]·seg.Block(i) for every
// b in one cache-tiled pass over the source blocks — the batch-shaped encode
// primitive behind the parallel workers. Producing many payloads per sweep
// amortizes source-block memory traffic across the whole batch.
func EncodeBatchInto(dsts [][]byte, seg *Segment, coeffs [][]byte) error {
	return rlnc.EncodeBatchInto(dsts, seg, coeffs)
}

// XorSlice computes dst ^= src with wide-word XOR — the table-free GF(2)
// add kernel behind the systematic fast path. Slices must be equal length.
func XorSlice(dst, src []byte) { gf256.XorSlice(dst, src) }

// XorSlice4 folds four equal-length sources into dst in one fused pass,
// reading dst once instead of four times.
func XorSlice4(dst, s1, s2, s3, s4 []byte) { gf256.XorSlice4(dst, s1, s2, s3, s4) }

// NewParallelEncoder returns a goroutine-parallel host encoder.
func NewParallelEncoder(workers int, mode EncodeMode) (*rlnc.ParallelEncoder, error) {
	return rlnc.NewParallelEncoder(workers, mode)
}

// DecodeSegmentsParallel batch-decodes independent segments with worker
// goroutines; each worker runs the two-stage pipeline. Cancelling ctx stops
// the sweep at segment granularity and returns ctx.Err().
func DecodeSegmentsParallel(ctx context.Context, p Params, sets [][]*CodedBlock, workers int) ([]*Segment, error) {
	return rlnc.DecodeSegmentsParallel(ctx, p, sets, workers)
}

// DecodeTwoStage recovers one segment with the paper's explicit two-stage
// pipeline (Sec. 5.2): invert the n×n coefficient matrix on [C | I] — no
// payload bytes drag through the elimination — then recover all source
// blocks in one tiled b = C⁻¹·x multiply.
func DecodeTwoStage(p Params, blocks []*CodedBlock) (*Segment, error) {
	return rlnc.DecodeTwoStage(p, blocks)
}

// Simulated hardware (see internal/gpu and internal/cpusim).
type (
	// GPUDevice is a simulated CUDA-class GPU with a calibrated cost model.
	GPUDevice = gpu.Device
	// GPUSpec describes a simulated GPU.
	GPUSpec = gpu.DeviceSpec
	// GPUScheme identifies a GPU multiplication kernel (LoopBased,
	// TableBased0…TableBased5).
	GPUScheme = gpu.Scheme
	// CPUMachine is a simulated multicore host.
	CPUMachine = cpusim.Machine
	// CPUSpec describes a simulated multicore host.
	CPUSpec = cpusim.CPUSpec
	// CPUScheme identifies a CPU multiplication strategy.
	CPUScheme = cpusim.Scheme
)

// CPU multiplication strategies (paper Secs. 4.1 and 5.1.3).
const (
	CPULoopSIMD   = cpusim.LoopSIMD
	CPUTableBased = cpusim.TableBased
)

// GPU kernel schemes in the paper's Fig. 7 ladder.
const (
	LoopBased   = gpu.LoopBased
	TableBased0 = gpu.TableBased0
	TableBased1 = gpu.TableBased1
	TableBased2 = gpu.TableBased2
	TableBased3 = gpu.TableBased3
	TableBased4 = gpu.TableBased4
	TableBased5 = gpu.TableBased5
)

// GTX280 returns the paper's primary GPU testbed spec.
func GTX280() GPUSpec { return gpu.GTX280() }

// GeForce8800GT returns the prior-generation GPU baseline spec.
func GeForce8800GT() GPUSpec { return gpu.GeForce8800GT() }

// MacPro returns the paper's 8-core Xeon CPU baseline spec.
func MacPro() CPUSpec { return cpusim.MacPro() }

// NewGPUDevice creates a simulated device.
func NewGPUDevice(spec GPUSpec) (*GPUDevice, error) { return gpu.NewDevice(spec) }

// NewCPUMachine creates a simulated multicore host.
func NewCPUMachine(spec CPUSpec) (*CPUMachine, error) { return cpusim.NewMachine(spec) }

// Engines (see internal/core).
type (
	// EncodeEngine produces coded blocks at an engine-specific rate.
	EncodeEngine = core.Encoder
	// DecodeEngine recovers segments from coded block sets.
	DecodeEngine = core.Decoder
	// EngineReport describes one engine run.
	EngineReport = core.Report
	// StreamScenario is a streaming-server configuration.
	StreamScenario = core.StreamScenario
)

// NewGPUEncoder returns an encode engine on a fresh simulated device.
func NewGPUEncoder(spec GPUSpec, scheme GPUScheme) (*core.GPUEncoder, error) {
	return core.NewGPUEncoder(spec, scheme)
}

// NewCPUEncoder returns a simulated multicore encode engine.
func NewCPUEncoder(spec CPUSpec, mode EncodeMode, scheme CPUScheme) (*core.CPUEncoder, error) {
	return core.NewCPUEncoder(spec, mode, scheme)
}

// NewHostEncoder returns an engine measuring the real local machine.
func NewHostEncoder(workers int, mode EncodeMode) (*core.HostEncoder, error) {
	return core.NewHostEncoder(workers, mode)
}

// NewCombinedEncoder pairs a GPU and a CPU engine (paper Sec. 5.4.1).
func NewCombinedEncoder(gpuEnc, cpuEnc EncodeEngine) *core.CombinedEncoder {
	return core.NewCombinedEncoder(gpuEnc, cpuEnc)
}

// GPUDecodeOptions tunes the single-segment GPU decoder (atomicMin pivot
// search, coefficient-matrix caching).
type GPUDecodeOptions = gpu.DecodeOptions

// NewGPUSingleDecoder returns the paper's progressive single-segment GPU
// decoder (Sec. 4.2.2).
func NewGPUSingleDecoder(spec GPUSpec, opts GPUDecodeOptions) (*core.GPUSingleDecoder, error) {
	return core.NewGPUSingleDecoder(spec, opts)
}

// NewGPUMultiDecoder returns the paper's multi-segment GPU decoder
// (Sec. 5.2); segmentsPerSM 1 = 30-segment mode, 2 = 60-segment mode.
func NewGPUMultiDecoder(spec GPUSpec, segmentsPerSM int) (*core.GPUMultiDecoder, error) {
	return core.NewGPUMultiDecoder(spec, segmentsPerSM)
}

// NewCPUCooperativeDecoder returns the Fig. 4(b) CPU baseline decoder.
func NewCPUCooperativeDecoder(spec CPUSpec) (*core.CPUCooperativeDecoder, error) {
	return core.NewCPUCooperativeDecoder(spec)
}

// NewCPUMultiDecoder returns the one-thread-per-segment CPU decoder.
func NewCPUMultiDecoder(spec CPUSpec) (*core.CPUMultiDecoder, error) {
	return core.NewCPUMultiDecoder(spec)
}

// NewHostDecoder returns a decode engine measuring the real local machine.
func NewHostDecoder(workers int) *core.HostDecoder {
	return core.NewHostDecoder(workers)
}

// DefaultStreamScenario returns the paper's 768 Kbps / 512 KB-segment
// streaming configuration (Sec. 5.1.1).
func DefaultStreamScenario() StreamScenario { return core.DefaultStreamScenario() }

// Streaming server (see internal/stream).
type (
	// StreamServer serves coded blocks to downstream peers.
	StreamServer = stream.Server
	// StreamMetrics reports one serving run.
	StreamMetrics = stream.Metrics
)

// NewStreamServer builds a streaming server over media with the given
// engine.
func NewStreamServer(scenario StreamScenario, enc EncodeEngine, media []byte) (*StreamServer, error) {
	return stream.NewServer(scenario, enc, media)
}

// P2P distribution (see internal/p2p).
type (
	// P2PConfig describes an Avalanche-style distribution session.
	P2PConfig = p2p.Config
	// P2PResult summarizes a session.
	P2PResult = p2p.Result
	// P2PMode selects the distribution strategy.
	P2PMode = p2p.Mode
)

// P2P distribution strategies.
const (
	P2PModeRLNC    = p2p.ModeRLNC
	P2PModeForward = p2p.ModeForward
	P2PModeUncoded = p2p.ModeUncoded
)

// RunP2P executes one distribution session.
func RunP2P(cfg P2PConfig) (*P2PResult, error) { return p2p.Run(cfg) }

// Extended codec types.
type (
	// SeededBlock carries an 8-byte coefficient seed instead of an n-byte
	// vector (compact headers for source-generated blocks).
	SeededBlock = rlnc.SeededBlock
	// SystematicEncoder emits source blocks verbatim before coding.
	SystematicEncoder = rlnc.SystematicEncoder
	// GaussianDecoder defers back-substitution to a single final pass —
	// the "traditional Gaussian elimination" alternative of paper Sec. 3.
	GaussianDecoder = rlnc.GaussianDecoder
)

// SystematicOption tunes a SystematicEncoder's repair schedule.
type SystematicOption = rlnc.SystematicOption

// NewSystematicEncoder wraps seg in a systematic encoder: one verbatim
// sweep of the source blocks, then GF(2) bitmask XOR repair blocks, then a
// dense GF(2^8) tail for the stubborn final ranks.
func NewSystematicEncoder(seg *Segment, rng *rand.Rand, opts ...SystematicOption) *SystematicEncoder {
	return rlnc.NewSystematicEncoder(seg, rng, opts...)
}

// WithXorRepair sets how many GF(2) bitmask repair blocks follow each
// verbatim sweep before the encoder falls back to dense coding.
func WithXorRepair(r int) SystematicOption { return rlnc.WithXorRepair(r) }

// WithDenseTail sets how many dense GF(2^8) blocks close each cycle.
func WithDenseTail(t int) SystematicOption { return rlnc.WithDenseTail(t) }

// NewGaussianDecoder returns the forward-elimination-only decoder.
func NewGaussianDecoder(p Params) (*GaussianDecoder, error) {
	return rlnc.NewGaussianDecoder(p)
}

// CoeffsFromSeed regenerates a seeded block's coefficient vector.
func CoeffsFromSeed(seed int64, n int) []byte { return rlnc.CoeffsFromSeed(seed, n) }

// Network transport (see internal/netio).
type (
	// NetServer streams coded blocks to TCP (or any net.Conn) clients:
	// concurrent sessions fed from one shared encoder, bounded per-client
	// queues with shedding, write deadlines, and a metrics snapshot.
	NetServer = netio.Server
	// NetServerOption configures a NetServer.
	NetServerOption = netio.ServerOption
	// NetSnapshot is the server-wide observability surface.
	NetSnapshot = netio.Snapshot
	// NetSessionSnapshot describes one live serving session.
	NetSessionSnapshot = netio.SessionSnapshot
	// NetCounters is the shared atomic serving-counter set (also used by
	// the stream.Server engine driver).
	NetCounters = netio.Counters
	// FetchStats reports a network download.
	FetchStats = netio.FetchStats
)

// NewNetServer builds a push-streaming server over media split at p.
func NewNetServer(media []byte, p Params, opts ...NetServerOption) (*NetServer, error) {
	return netio.NewServer(media, p, opts...)
}

// NetServer options (see internal/netio for full documentation).
var (
	// WithQueueDepth bounds each session's send queue.
	WithQueueDepth = netio.WithQueueDepth
	// WithWriteDeadline bounds every record write.
	WithWriteDeadline = netio.WithWriteDeadline
	// WithWriteRetries sets the retry budget of a timed-out write.
	WithWriteRetries = netio.WithWriteRetries
	// WithEncodeBatch sets blocks encoded per segment per pump round.
	WithEncodeBatch = netio.WithEncodeBatch
	// WithMaxSessions caps concurrent sessions.
	WithMaxSessions = netio.WithMaxSessions
	// WithServerSeed fixes the pump's coefficient-stream seed.
	WithServerSeed = netio.WithServerSeed
	// WithWireMode selects the serving wire discipline (dense or
	// systematic + XOR); the negotiated mode rides the session handshake.
	WithWireMode = netio.WithWireMode
	// WithServePace floors the interval between pump rounds, modeling a
	// capacity-constrained origin uplink.
	WithServePace = netio.WithServePace
	// WithPumpShards splits serving across independent encoder pumps;
	// sessions join the least-loaded shard at handshake.
	WithPumpShards = netio.WithPumpShards
	// WithFanout selects the pump-to-queue hand-off rung (amortized bulk
	// offers + vectored writes, or the per-record baseline).
	WithFanout = netio.WithFanout
	// WithRetryAfter sets the retry hint carried by BUSY admission
	// decisions.
	WithRetryAfter = netio.WithRetryAfter
	// WithBrownout enables the overload degradation ladder (pace → lean
	// schedule → reject) driven by the server's pressure signal.
	WithBrownout = netio.WithBrownout
)

// Graceful degradation (see internal/netio): a server under pressure climbs
// a deterministic brownout ladder, and a retiring server drains — new
// handshakes get structured BUSY/REDIRECT decisions while in-flight sessions
// run to rank completion (NetServer.Drain).
type (
	// BrownoutConfig tunes the overload degradation ladder.
	BrownoutConfig = netio.BrownoutConfig
	// BrownoutRung is a position on the ladder.
	BrownoutRung = netio.BrownoutRung
	// DegradableSource is a RecordSource with a cheaper degraded schedule
	// the brownout controller can toggle.
	DegradableSource = netio.DegradableSource
)

// Brownout ladder rungs, in escalation order.
const (
	BrownoutOff    = netio.BrownoutOff
	BrownoutPaced  = netio.BrownoutPaced
	BrownoutLean   = netio.BrownoutLean
	BrownoutReject = netio.BrownoutReject
)

// Serving fan-out and sharding (see internal/netio).
type (
	// FanoutMode selects how the encoder pump hands records to session
	// queues — the serving-side optimization ladder.
	FanoutMode = netio.FanoutMode
	// NetShardSnapshot is one encoder pump's slice of a NetSnapshot.
	NetShardSnapshot = netio.ShardSnapshot
	// ShardedRecordSource is a RecordSource that can partition itself
	// across pump shards instead of being serialized behind one lock.
	ShardedRecordSource = netio.ShardedRecordSource
)

// Fan-out rungs.
const (
	// FanoutAmortized (default): bulk offers, batched counters, vectored
	// writes.
	FanoutAmortized = netio.FanoutAmortized
	// FanoutPerRecord: the original one-offer-one-write-per-record cost
	// profile, kept selectable so capacity ladders can measure the delta.
	FanoutPerRecord = netio.FanoutPerRecord

	// NetSnapshotVersion identifies the NetSnapshot schema.
	NetSnapshotVersion = netio.SnapshotVersion
)

// ParseFanoutMode parses a FanoutMode from its flag spelling ("amortized",
// "record").
func ParseFanoutMode(s string) (FanoutMode, error) { return netio.ParseFanoutMode(s) }

// Pluggable serving sources (see internal/netio): a NetServer normally
// serves a media object, but any RecordSource — most notably a mesh relay's
// recoder bank — can sit behind the same pump, queues, and shed machinery.
type (
	// RecordSource supplies framed records for one declared session shape.
	RecordSource = netio.RecordSource
	// SessionInfo is the session shape a RecordSource declares: coding
	// params, segment count, payload length, and wire mode.
	SessionInfo = netio.SessionInfo
)

// NewSourceServer builds a push-streaming server over an arbitrary
// RecordSource instead of a media object.
func NewSourceServer(src RecordSource, opts ...NetServerOption) (*NetServer, error) {
	return netio.NewSourceServer(src, opts...)
}

// FrameRecord marshals one coded block into the record framing for mode, in
// a freshly allocated buffer.
func FrameRecord(b *CodedBlock, mode WireMode) ([]byte, error) {
	return netio.FrameRecord(b, mode)
}

// FrameRecordWith is FrameRecord into a buffer from alloc — the helper
// RecordSource implementations use to frame records into the allocator
// their Records call receives.
func FrameRecordWith(b *CodedBlock, mode WireMode, alloc func(int) []byte) ([]byte, error) {
	return netio.FrameRecordWith(b, mode, alloc)
}

// Redirector is a mutable dial target: it satisfies DialFunc while letting
// a control plane re-point the next reconnect at a different server — the
// leaf-side half of mesh remediation.
type Redirector = netio.Redirector

// NewRedirector returns a Redirector dialing target until re-pointed.
func NewRedirector(target string) *Redirector { return netio.NewRedirector(target) }

// WireMode is the wire discipline a serving session negotiates in its
// handshake: classic dense GF(2^8) records, or the systematic schedule
// (source blocks verbatim, GF(2) bitmask XOR repair, dense tail).
type WireMode = netio.WireMode

// Wire disciplines.
const (
	// ModeDense streams dense GF(2^8) coded records only.
	ModeDense = netio.ModeDense
	// ModeSystematic streams the systematic + XOR schedule, letting
	// clients decode on the table-free XOR fast path until a dense
	// record arrives.
	ModeSystematic = netio.ModeSystematic
)

// ParseWireMode parses a WireMode from its flag spelling ("dense",
// "systematic").
func ParseWireMode(s string) (WireMode, error) { return netio.ParseWireMode(s) }

// Fetch downloads and decodes a served object from conn. Cancelling ctx
// unblocks any pending read and returns ctx.Err(). Fetch is the one-shot
// path: any stream failure is final. For a client that survives resets,
// framing loss, and server restarts without losing decoder rank, use a
// Fetcher.
func Fetch(ctx context.Context, conn net.Conn) ([]byte, *FetchStats, error) {
	return netio.Fetch(ctx, conn)
}

// Resilient fetch client (see internal/netio).
type (
	// Fetcher is a reconnecting download client: it owns a dial function
	// rather than a connection and carries per-segment decoders across
	// reconnects, so a reset or server restart costs only the bytes in
	// flight, never accumulated rank.
	Fetcher = netio.Fetcher
	// FetcherOption configures a Fetcher.
	FetcherOption = netio.FetcherOption
	// FetchResult carries a fetch's payload, decoded segments, per-segment
	// ranks, and stats — returned even when the fetch failed.
	FetchResult = netio.FetchResult
	// DialFunc opens one connection to the serving peer.
	DialFunc = netio.DialFunc
)

// NewFetcher returns a resilient Fetcher that downloads through dial.
func NewFetcher(dial DialFunc, opts ...FetcherOption) *Fetcher {
	return netio.NewFetcher(dial, opts...)
}

// Fetcher options (see internal/netio for full documentation).
var (
	// WithMaxAttempts caps total connection attempts (0 = unlimited).
	WithMaxAttempts = netio.WithMaxAttempts
	// WithBackoff sets the reconnect backoff base and cap.
	WithBackoff = netio.WithBackoff
	// WithBackoffJitter sets the backoff jitter fraction in [0, 1].
	WithBackoffJitter = netio.WithBackoffJitter
	// WithBackoffSeed makes the backoff schedule reproducible.
	WithBackoffSeed = netio.WithBackoffSeed
	// WithReconnectHook observes every reconnect and the ranks carried.
	WithReconnectHook = netio.WithReconnectHook
	// WithResumeState preloads decoders from a Fetcher.State blob.
	WithResumeState = netio.WithResumeState
	// WithRecordTap observes every accepted record; taps compose and run
	// in installation order.
	WithRecordTap = netio.WithRecordTap
	// WithSessionHook observes each session's outcome; hooks compose and
	// run in installation order.
	WithSessionHook = netio.WithSessionHook
	// WithFetchTimeout bounds the whole fetch wall clock; on expiry the
	// partial FetchResult is returned with ErrFetchTimeout.
	WithFetchTimeout = netio.WithFetchTimeout
	// WithRedirector lets the fetcher honor REDIRECT admission decisions
	// by re-pointing the given Redirector at the named survivor.
	WithRedirector = netio.WithRedirector
)

// Deterministic fault injection (see internal/faultnet): a seeded chaos
// net.Conn layer for testing transports under byte corruption, short
// reads/writes, read stalls, and mid-stream resets on a reproducible
// schedule.
type (
	// FaultConfig schedules the injected faults for one seed.
	FaultConfig = faultnet.Config
	// FaultCounters aggregates injected-fault counts across connections.
	FaultCounters = faultnet.Counters
	// FaultCounterView is a consistent snapshot of FaultCounters.
	FaultCounterView = faultnet.CounterView
	// FaultConn is a net.Conn with scheduled fault injection.
	FaultConn = faultnet.Conn
	// FaultListener wraps every accepted conn in fault injection.
	FaultListener = faultnet.Listener
)

// WrapFaulty wraps conn in a deterministic fault-injection layer.
func WrapFaulty(conn net.Conn, cfg FaultConfig) *FaultConn { return faultnet.Wrap(conn, cfg) }

// NewFaultListener wraps l so every accepted conn injects faults on a
// per-connection deterministic schedule.
func NewFaultListener(l net.Listener, cfg FaultConfig) *FaultListener {
	return faultnet.NewListener(l, cfg)
}

// FaultyDialer wraps dial so every dialed conn injects faults on a
// per-connection deterministic schedule, sharing the returned counters.
func FaultyDialer(cfg FaultConfig, dial DialFunc) (DialFunc, *FaultCounters) {
	d, ctr := faultnet.Dialer(cfg, dial)
	return d, ctr
}

// Recoding relay mesh (see internal/mesh): an origin server feeding a tier
// of relays that recombine received blocks without decoding and re-serve
// them to a wave of leaf fetchers, with a control plane — membership pool,
// heartbeat/rank health detection, least-loaded coordinator, remediator —
// that re-points leaves off dead relays mid-transfer.
type (
	// MeshTopology describes an in-process mesh: media, coding params,
	// relay/leaf counts, wire mode, chaos configs, and health cadence.
	MeshTopology = mesh.Topology
	// Mesh is a running origin + relay tier + leaf wave with its control
	// plane.
	Mesh = mesh.Mesh
	// MeshLeaf is one leaf fetcher in the wave.
	MeshLeaf = mesh.Leaf
	// MeshHealthConfig sets the suspect/dead failure-detection windows.
	MeshHealthConfig = mesh.HealthConfig
	// MeshMemberView is one relay's state in a snapshot.
	MeshMemberView = mesh.MemberView
	// MeshSnapshot is a consistent JSON-taggable view of the whole mesh.
	MeshSnapshot = mesh.MeshSnapshot
)

// NewMesh builds (but does not start) a mesh for the topology.
func NewMesh(topo MeshTopology) (*Mesh, error) { return mesh.New(topo) }

// Coded file containers (see internal/ncfile).
type (
	// FileEncodeOptions tunes EncodeFile.
	FileEncodeOptions = ncfile.EncodeOptions
	// FileEncodeSummary reports an EncodeFile run.
	FileEncodeSummary = ncfile.EncodeSummary
	// FileDecodeSummary reports a DecodeFile run.
	FileDecodeSummary = ncfile.DecodeSummary
)

// EncodeFile writes payload bytes from r as a loss-tolerant coded container
// on w.
func EncodeFile(w io.Writer, r io.Reader, p Params, opts FileEncodeOptions) (*FileEncodeSummary, error) {
	return ncfile.Encode(w, r, p, opts)
}

// DecodeFile recovers the payload of a coded container, skipping corrupt
// records.
func DecodeFile(w io.Writer, r io.Reader) (*FileDecodeSummary, error) {
	return ncfile.Decode(w, r)
}

// Experiments returns the IDs of the paper's reproduced tables and figures
// in evaluation order (see EXPERIMENTS.md).
func Experiments() []string {
	reg := experiments.Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// RunExperiment regenerates one table or figure by ID and renders it as an
// aligned text table to w.
func RunExperiment(id string, w io.Writer) error {
	runner, ok := experiments.Lookup(id)
	if !ok {
		return fmt.Errorf("extremenc: unknown experiment %q", id)
	}
	fig, err := runner()
	if err != nil {
		return err
	}
	return fig.Render(w)
}

// Playback modeling (see internal/stream).
type (
	// PlaybackConfig describes a live viewing session to simulate.
	PlaybackConfig = stream.PlaybackConfig
	// PlaybackMetrics reports the viewer experience.
	PlaybackMetrics = stream.PlaybackMetrics
)

// SimulatePlayback models viewer startup delay and stalls for a peer
// population against a server's coding and NIC capacity (Sec. 5.1.2's
// buffering analysis).
func SimulatePlayback(cfg PlaybackConfig) (*PlaybackMetrics, error) {
	return stream.SimulatePlayback(cfg)
}

// MaxSmoothPeers returns the largest stall-free viewer count at the given
// encode rate.
func MaxSmoothPeers(s StreamScenario, encodeMBps float64) int {
	return stream.MaxSmoothPeers(s, encodeMBps)
}

// Observability (see internal/obs). One MetricsRegistry collects every
// counter, gauge, and stage-latency histogram the library produces; the
// session server attaches via WithMetricsRegistry, the resilient fetcher
// via WithMetrics, the chaos link via FaultCounters.Register, and the
// stream server via Server.RegisterMetrics. SetMetricsSink additionally
// enables the stage-timing spans on the codec and transport hot paths —
// without a sink they cost one atomic load and zero allocations.
type (
	// MetricsRegistry is a registry of named lock-free metrics with
	// Prometheus-text (WriteText) and JSON (SnapshotJSON) exposition.
	MetricsRegistry = obs.Registry
	// MetricsSample is one parsed series from a Prometheus text scrape.
	MetricsSample = obs.TextSample
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SetMetricsSink installs reg as the process-wide span sink, turning on the
// stage-latency histograms (rlnc.encode_batch, rlnc.absorb, netio.*,
// fetch.*). Passing nil disables spans again, returning the hot paths to
// their free no-op form.
func SetMetricsSink(reg *MetricsRegistry) { obs.SetSink(reg) }

// MetricsHandler serves reg over HTTP: Prometheus text on /metrics, a JSON
// snapshot on /metrics.json (merged with extra() when non-nil), and the
// pprof profiles under /debug/pprof/; every other path is a 404.
func MetricsHandler(reg *MetricsRegistry, extra func() map[string]any) http.Handler {
	return obs.Handler(reg, extra)
}

// ParseMetricsText parses a Prometheus text exposition (as produced by
// MetricsRegistry.WriteText or scraped from /metrics) with the in-repo
// minimal parser.
func ParseMetricsText(r io.Reader) ([]MetricsSample, error) { return obs.ParseText(r) }

var (
	// WithMetricsRegistry attaches a server's counters to a registry.
	WithMetricsRegistry = netio.WithMetricsRegistry
	// WithFetchMetrics attaches a fetcher's counters to a registry.
	WithFetchMetrics = netio.WithMetrics
)

// Sentinel errors, re-exported from the codec and transport layers so
// callers can branch with errors.Is against the facade alone.
var (
	// ErrInvalidParams reports an unusable coding configuration.
	ErrInvalidParams = rlnc.ErrInvalidParams
	// ErrNotReady reports a Segment call before full rank.
	ErrNotReady = rlnc.ErrNotReady
	// ErrWrongSegment reports a block for a different segment.
	ErrWrongSegment = rlnc.ErrWrongSegment
	// ErrRankDeficient reports blocks that do not span the segment.
	ErrRankDeficient = rlnc.ErrRankDeficient
	// ErrWorkerCount reports a non-positive worker count.
	ErrWorkerCount = rlnc.ErrWorkerCount
	// ErrEncodeMode reports an unknown parallel-encode mode.
	ErrEncodeMode = rlnc.ErrEncodeMode
	// ErrBlockCountInvalid reports a non-positive coded-block request.
	ErrBlockCountInvalid = rlnc.ErrBlockCountInvalid
	// ErrCoeffsMismatch reports a mis-sized coefficient vector.
	ErrCoeffsMismatch = rlnc.ErrCoeffsMismatch
	// ErrBlockShape reports a mis-shaped coded block.
	ErrBlockShape = rlnc.ErrBlockShape
	// ErrBatchShape reports inconsistent batch-encode shapes.
	ErrBatchShape = rlnc.ErrBatchShape
	// ErrNoBlocks reports a recombination request with no input.
	ErrNoBlocks = rlnc.ErrNoBlocks
	// ErrNoSeed reports Recoder.Emit without WithSeed.
	ErrNoSeed = rlnc.ErrNoSeed
	// ErrDataTooLarge reports payload bytes exceeding the segment size.
	ErrDataTooLarge = rlnc.ErrDataTooLarge
	// ErrParamsMismatch reports segments with disagreeing parameters.
	ErrParamsMismatch = rlnc.ErrParamsMismatch
	// ErrBadHandshake reports a malformed transport session header.
	ErrBadHandshake = netio.ErrBadHandshake
	// ErrRecordLength reports an implausible record length prefix.
	ErrRecordLength = netio.ErrRecordLength
	// ErrStreamTruncated reports a coded stream that ended early.
	ErrStreamTruncated = netio.ErrStreamTruncated
	// ErrFetchBudget reports a Fetcher that ran out of attempts; the
	// FetchResult alongside it still carries all accumulated progress.
	ErrFetchBudget = netio.ErrFetchBudget
	// ErrHeaderMismatch reports a reconnect answered with a different
	// session header.
	ErrHeaderMismatch = netio.ErrHeaderMismatch
	// ErrBadResumeState reports an unusable WithResumeState blob.
	ErrBadResumeState = netio.ErrBadResumeState
	// ErrBadDecoderState reports an unusable serialized decoder.
	ErrBadDecoderState = rlnc.ErrBadDecoderState
	// ErrNotBinary reports a GF(2) wire encoding request for a block whose
	// coefficients are not all 0/1.
	ErrNotBinary = rlnc.ErrNotBinary
	// ErrBadBitmask reports an XNC2 record with bits set past the block
	// count.
	ErrBadBitmask = rlnc.ErrBadBitmask
	// ErrInjectedReset reports a fault-injected connection reset.
	ErrInjectedReset = faultnet.ErrInjectedReset
	// ErrServerClosed reports an operation on a shut-down server.
	ErrServerClosed = netio.ErrServerClosed
	// ErrShortWrite reports a record write that missed its deadline budget.
	ErrShortWrite = netio.ErrShortWrite
	// ErrAdmissionBusy reports a handshake answered with a BUSY admission
	// decision: the server is at its session cap or shedding load.
	ErrAdmissionBusy = netio.ErrAdmissionBusy
	// ErrAdmissionRedirect reports a handshake answered with a REDIRECT
	// admission decision: the server is draining toward a named survivor.
	ErrAdmissionRedirect = netio.ErrAdmissionRedirect
	// ErrFetchTimeout reports a fetch that exhausted its WithFetchTimeout
	// wall-clock budget; the partial FetchResult alongside it still carries
	// all accumulated progress.
	ErrFetchTimeout = netio.ErrFetchTimeout
)
