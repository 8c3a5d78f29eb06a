// Command ncload is the serving-capacity saturation harness: it boots the
// push server in-process, drives thousands of concurrent raw wire-speed
// sessions (plus a few fully-decoding canary fetchers) against it, and
// records the saturation curve — sessions vs aggregate MB/s vs p50/p99
// record latency scraped from the obs stage histograms — as go-bench result
// lines on stdout, ready for `cmd/benchjson`.
//
// The ladder ramps session depth in doubling waves and, at every depth,
// measures each serving rung: the per-record single-pump baseline (the
// pre-refactor cost profile, kept selectable exactly so the committed
// speedup is a measurement) and the amortized fan-out at each configured
// shard count. Every wave gets a fresh server, listener, and metrics
// registry; MB/s comes from the BytesSent delta over a settled measurement
// window, latency quantiles from the windowed difference of two
// netio.record_send histogram snapshots.
//
//	go run ./cmd/ncload -sessions 5120 | go run ./cmd/benchjson > BENCH_serve.json
//
// With -smoke it runs one scaled-down 1k-session wave fit for `-race` CI and
// gates it hard: ramp and canary failures, the windowed p99 record latency
// (-max-p99), and exact offered == sent + shed accounting re-checked from
// one scraped Prometheus exposition all exit non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

type options struct {
	sessions   int
	steps      int
	shards     []int
	systematic bool
	window     time.Duration
	settle     time.Duration
	canaries   int
	chaos      bool
	blockCount int
	blockSize  int
	segments   int
	queueDepth int
	seed       int64
	rampChunk  int
	smoke      bool
	maxP99     time.Duration
}

// waveCfg is one rung × depth point of the ladder.
type waveCfg struct {
	fanout   netio.FanoutMode
	wire     netio.WireMode
	shards   int
	sessions int
}

func (w waveCfg) benchName() string {
	name := fmt.Sprintf("BenchmarkServeLoad/fanout=%s/shards=%d/sessions=%d",
		w.fanout, w.shards, w.sessions)
	if w.wire != netio.ModeDense {
		name += "/wire=" + w.wire.String()
	}
	return name
}

// waveResult is one measured point of the saturation curve.
type waveResult struct {
	window  time.Duration
	mbps    float64
	p50     time.Duration
	p99     time.Duration
	shedPct float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ncload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ncload", flag.ContinueOnError)
	var (
		sessions   = fs.Int("sessions", 5120, "peak concurrent raw sessions per wave")
		steps      = fs.Int("steps", 3, "ramp depths per rung (each doubling up to -sessions)")
		shardsFlag = fs.String("shards", "1,2,4", "comma-separated pump shard counts for the amortized rung")
		systematic = fs.Bool("systematic", true, "add one systematic-wire wave at peak depth")
		window     = fs.Duration("window", 3*time.Second, "measurement window per wave")
		settle     = fs.Duration("settle", 500*time.Millisecond, "post-ramp settle before the window opens")
		canaries   = fs.Int("canaries", 4, "fully-decoding fetcher sessions per wave (payload verified)")
		chaos      = fs.Bool("chaos", false, "route canary fetchers through a lossy faultnet link")
		blockCount = fs.Int("block-count", 16, "coded blocks per segment (n)")
		blockSize  = fs.Int("block-size", 1024, "block size in bytes (k)")
		segments   = fs.Int("segments", 4, "segments in the served object")
		queueDepth = fs.Int("queue-depth", 64, "per-session send queue depth in records")
		seed       = fs.Int64("seed", 1, "base seed for media and coefficient streams")
		rampChunk  = fs.Int("ramp-chunk", 256, "sessions dialed per ramp chunk")
		smoke      = fs.Bool("smoke", false, "one gated 1k-session wave (CI mode, -race friendly)")
		maxP99     = fs.Duration("max-p99", 2*time.Second, "smoke gate: max windowed p99 record latency")
		brownout   = fs.Bool("brownout", false, "run the gated brownout wave instead of the ladder: slow readers push past saturation, the degradation ladder must engage and step back, canaries must still decode byte-identical")
		summary    = fs.String("summary", "", "write a machine-readable JSON run summary to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	shardList, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}
	opt := options{
		sessions: *sessions, steps: *steps, shards: shardList,
		systematic: *systematic, window: *window, settle: *settle,
		canaries: *canaries, chaos: *chaos,
		blockCount: *blockCount, blockSize: *blockSize, segments: *segments,
		queueDepth: *queueDepth, seed: *seed, rampChunk: *rampChunk,
		smoke: *smoke, maxP99: *maxP99,
	}
	if opt.smoke {
		// The CI gate: one wave, scaled to finish quickly under -race.
		opt.sessions, opt.steps = 1024, 1
		opt.shards = []int{4}
		opt.window, opt.settle = time.Second, 300*time.Millisecond
		opt.canaries, opt.systematic = 2, false
	}
	if opt.sessions < 1 || opt.steps < 1 || opt.rampChunk < 1 {
		return fmt.Errorf("sessions, steps, and ramp-chunk must be positive")
	}
	raiseFDLimit()

	lg := log.New(os.Stderr, "ncload: ", log.Ltime)
	sum := &loadSummary{Seed: opt.seed, Smoke: opt.smoke, Invariants: map[string]bool{}}
	var runErr error
	if *brownout {
		runErr = runBrownoutWave(opt, out, lg, sum)
	} else {
		runErr = runLadder(opt, out, lg, sum)
	}
	sum.OK = runErr == nil
	if runErr != nil {
		sum.Error = runErr.Error()
	}
	if *summary != "" {
		b, err := json.MarshalIndent(sum, "", " ")
		if err != nil {
			return fmt.Errorf("%w (summary: %v)", runErr, err)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*summary, b, 0o644); err != nil {
			return fmt.Errorf("%w (summary: %v)", runErr, err)
		}
	}
	return runErr
}

// loadSummary is the machine-readable outcome of one ncload run: the seed,
// every measured saturation point, the gate verdicts, and — in -brownout
// mode — the degradation-ladder headline numbers.
type loadSummary struct {
	OK         bool            `json:"ok"`
	Seed       int64           `json:"seed"`
	Smoke      bool            `json:"smoke"`
	Waves      []waveSummary   `json:"waves,omitempty"`
	PeakRung   int             `json:"brownout_peak_rung,omitempty"`
	Transits   int64           `json:"brownout_transitions,omitempty"`
	RecoveryNs int64           `json:"brownout_recovery_ns,omitempty"`
	Invariants map[string]bool `json:"invariants"`
	Error      string          `json:"error,omitempty"`
}

// waveSummary is one saturation-curve point in the JSON summary.
type waveSummary struct {
	Name     string  `json:"name"`
	Sessions int     `json:"sessions"`
	MBps     float64 `json:"mb_per_s"`
	P50Ns    int64   `json:"p50_ns"`
	P99Ns    int64   `json:"p99_ns"`
	ShedPct  float64 `json:"shed_pct"`
}

// runLadder drives the ramp ladder and emits the go-bench result lines.
func runLadder(opt options, out io.Writer, lg *log.Logger, sum *loadSummary) error {
	fmt.Fprintf(out, "goos: %s\ngoarch: %s\npkg: extremenc/cmd/ncload\n", runtime.GOOS, runtime.GOARCH)
	for _, wave := range buildWaves(opt) {
		lg.Printf("wave %s: ramping %d sessions", wave.benchName(), wave.sessions)
		start := time.Now()
		res, err := runWave(wave, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", wave.benchName(), err)
		}
		lg.Printf("wave %s: %.1f MB/s, p50 %v, p99 %v, shed %.2f%% (%.0fs total)",
			wave.benchName(), res.mbps, res.p50, res.p99, res.shedPct,
			time.Since(start).Seconds())
		fmt.Fprintf(out, "%s \t%8d\t%12d ns/op\t%10.2f MB/s\t%12d p50-ns\t%12d p99-ns\t%8.3f shed-pct\n",
			wave.benchName(), 1, res.window.Nanoseconds(), res.mbps,
			res.p50.Nanoseconds(), res.p99.Nanoseconds(), res.shedPct)
		sum.Waves = append(sum.Waves, waveSummary{
			Name: wave.benchName(), Sessions: wave.sessions, MBps: res.mbps,
			P50Ns: res.p50.Nanoseconds(), P99Ns: res.p99.Nanoseconds(), ShedPct: res.shedPct,
		})
	}
	// Every wave that completed passed its internal gates: ledger exactness
	// and byte-identical canaries always, plus the p99 bound under -smoke.
	sum.Invariants["ledgers_balanced"] = true
	sum.Invariants["canaries_identical"] = true
	if opt.smoke {
		sum.Invariants["p99_within_gate"] = true
	}
	return nil
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty shard list")
	}
	sort.Ints(out)
	return out, nil
}

// buildWaves lays out the ladder: at every depth, the per-record single-pump
// baseline first, then the amortized rung at each shard count; finally one
// systematic-wire wave at peak depth and max shards so the curve records the
// XOR fast path's serving profile too.
func buildWaves(opt options) []waveCfg {
	depths := make([]int, 0, opt.steps)
	for i := opt.steps - 1; i >= 0; i-- {
		d := opt.sessions >> i
		if d < 1 || (len(depths) > 0 && d == depths[len(depths)-1]) {
			continue
		}
		depths = append(depths, d)
	}
	var waves []waveCfg
	for _, d := range depths {
		if !opt.smoke {
			waves = append(waves, waveCfg{netio.FanoutPerRecord, netio.ModeDense, 1, d})
		}
		for _, s := range opt.shards {
			waves = append(waves, waveCfg{netio.FanoutAmortized, netio.ModeDense, s, d})
		}
	}
	if opt.systematic {
		peak := depths[len(depths)-1]
		maxShards := opt.shards[len(opt.shards)-1]
		waves = append(waves, waveCfg{netio.FanoutAmortized, netio.ModeSystematic, maxShards, peak})
	}
	return waves
}

func makeMedia(size int, seed int64) []byte {
	media := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(media)
	return media
}

func runWave(wave waveCfg, opt options) (waveResult, error) {
	var res waveResult
	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	p := rlnc.Params{BlockCount: opt.blockCount, BlockSize: opt.blockSize}
	media := makeMedia(opt.segments*p.SegmentSize()-13, opt.seed)

	srv, err := netio.NewServer(media, p,
		netio.WithQueueDepth(opt.queueDepth),
		netio.WithServerSeed(opt.seed),
		// Measurement clients drain at full speed, but the deepest waves
		// starve individual readers for whole scheduler rotations; a wide
		// deadline budget keeps the default hostile-peer eviction profile
		// from shrinking the fleet mid-wave.
		netio.WithWriteDeadline(30*time.Second),
		netio.WithWriteRetries(4),
		netio.WithPumpShards(wave.shards),
		netio.WithFanout(wave.fanout),
		netio.WithWireMode(wave.wire),
		netio.WithMetricsRegistry(reg))
	if err != nil {
		return res, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(serveCtx, l) }()
	defer func() {
		srv.Shutdown()
		stopServe()
		l.Close()
		<-serveDone
	}()
	addr := l.Addr().String()

	// Ramp the raw fleet in chunks: each session dials, handshakes, and then
	// drains records at wire speed until closed. Chunked dialing paces the
	// accept queue, and waiting on each chunk's handshakes is the natural
	// ramp throttle: later chunks join while earlier sessions are already
	// being served, so deep waves ramp slowly but arrive at a steady state.
	var (
		fleetMu sync.Mutex
		fleet   []*netio.RawClient
		drain   sync.WaitGroup
	)
	defer func() {
		fleetMu.Lock()
		for _, rc := range fleet {
			rc.Close()
		}
		fleetMu.Unlock()
		drain.Wait()
	}()
	for off := 0; off < wave.sessions; off += opt.rampChunk {
		n := min(opt.rampChunk, wave.sessions-off)
		errc := make(chan error, n)
		var chunk sync.WaitGroup
		for i := 0; i < n; i++ {
			chunk.Add(1)
			go func() {
				defer chunk.Done()
				conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
				if err != nil {
					errc <- err
					return
				}
				rc, err := netio.NewRawClient(conn)
				if err != nil {
					errc <- err
					return
				}
				fleetMu.Lock()
				fleet = append(fleet, rc)
				fleetMu.Unlock()
				drain.Add(1)
				go func() {
					defer drain.Done()
					for {
						if _, err := rc.Next(); err != nil {
							return
						}
					}
				}()
			}()
		}
		chunk.Wait()
		close(errc)
		for err := range errc {
			return res, fmt.Errorf("ramp: %w", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if srv.Snapshot().Sessions >= wave.sessions {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("only %d of %d sessions registered after ramp",
				srv.Snapshot().Sessions, wave.sessions)
		}
	}

	// Canary fetchers: full decoding sessions riding the same load, each
	// verified byte-identical. With -chaos they dial through a lossy faultnet
	// link and must still converge via reconnects.
	canaryCtx, cancelCanaries := context.WithTimeout(context.Background(),
		opt.settle+opt.window+2*time.Minute)
	defer cancelCanaries()
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	if opt.chaos {
		dial, _ = faultnet.Dialer(faultnet.Config{
			Seed:         opt.seed,
			CorruptEvery: 4000,
			ResetEvery:   3000,
			MaxReadChunk: 2048,
		}, dial)
	}
	canaryErrs := make(chan error, opt.canaries)
	for i := 0; i < opt.canaries; i++ {
		go func(i int) {
			f := netio.NewFetcher(dial)
			fres, err := f.Fetch(canaryCtx)
			if err != nil {
				canaryErrs <- fmt.Errorf("canary %d: %w", i, err)
				return
			}
			if !bytes.Equal(fres.Payload, media) {
				canaryErrs <- fmt.Errorf("canary %d: payload differs", i)
				return
			}
			canaryErrs <- nil
		}(i)
	}

	// The measurement window: throughput from the BytesSent delta, latency
	// quantiles from the windowed difference of two record_send snapshots.
	time.Sleep(opt.settle)
	hist := reg.Histogram("netio.record_send", "")
	h0 := hist.View()
	s0 := srv.Snapshot()
	t0 := time.Now()
	time.Sleep(opt.window)
	s1 := srv.Snapshot()
	h1 := hist.View()
	elapsed := time.Since(t0)

	for i := 0; i < opt.canaries; i++ {
		if err := <-canaryErrs; err != nil {
			return res, err
		}
	}

	// Teardown, then the exactness gates: the fleet hangs up, the server
	// drains, and the ledger must balance per shard and in aggregate.
	fleetMu.Lock()
	for _, rc := range fleet {
		rc.Close()
	}
	fleet = nil
	fleetMu.Unlock()
	drain.Wait()
	srv.Shutdown()
	final := srv.Snapshot()
	if final.BlocksOffered != final.BlocksSent+final.BlocksShed {
		return res, fmt.Errorf("aggregate ledger: offered %d != sent %d + shed %d",
			final.BlocksOffered, final.BlocksSent, final.BlocksShed)
	}
	for _, sh := range final.Shards {
		if !sh.Consistent() {
			return res, fmt.Errorf("shard %d ledger: offered %d != sent %d + shed %d",
				sh.Shard, sh.BlocksOffered, sh.BlocksSent, sh.BlocksShed)
		}
	}

	d := h1.Sub(h0)
	res.window = elapsed
	res.mbps = float64(s1.BytesSent-s0.BytesSent) / elapsed.Seconds() / 1e6
	res.p50, res.p99 = d.P50, d.P99
	if offered := s1.BlocksOffered - s0.BlocksOffered; offered > 0 {
		res.shedPct = 100 * float64(s1.BlocksShed-s0.BlocksShed) / float64(offered)
	}
	if d.Count == 0 {
		return res, fmt.Errorf("no record sends landed in the measurement window")
	}

	if opt.smoke {
		if err := smokeGates(reg, wave, d, opt.maxP99); err != nil {
			return res, err
		}
	}
	return res, nil
}

// smokeGates re-checks the wave from the outside: the windowed p99 bound and
// exact accounting read back from one scraped Prometheus exposition, so the
// CI gate exercises the full metrics path rather than trusting Snapshot.
func smokeGates(reg *obs.Registry, wave waveCfg, window obs.HistogramView, maxP99 time.Duration) error {
	if window.P99 > maxP99 {
		return fmt.Errorf("windowed p99 record latency %v exceeds gate %v", window.P99, maxP99)
	}
	var sb bytes.Buffer
	if err := reg.WriteText(&sb); err != nil {
		return err
	}
	samples, err := obs.ParseText(bytes.NewReader(sb.Bytes()))
	if err != nil {
		return err
	}
	vals := map[string]float64{}
	for _, s := range samples {
		if len(s.Labels) == 0 {
			vals[s.Key()] = s.Value
		}
	}
	for _, key := range []string{"netio_blocks_offered", "netio_blocks_sent", "netio_blocks_shed", "netio_pump_shards"} {
		if _, ok := vals[key]; !ok {
			return fmt.Errorf("%s missing from the scraped exposition", key)
		}
	}
	if vals["netio_blocks_offered"] != vals["netio_blocks_sent"]+vals["netio_blocks_shed"] {
		return fmt.Errorf("scraped ledger: offered %.0f != sent %.0f + shed %.0f",
			vals["netio_blocks_offered"], vals["netio_blocks_sent"], vals["netio_blocks_shed"])
	}
	if got := int(vals["netio_pump_shards"]); got != wave.shards {
		return fmt.Errorf("scraped netio_pump_shards = %d, want %d", got, wave.shards)
	}
	return nil
}

// runBrownoutWave is the graceful-degradation gate (`ncload -brownout`): a
// fleet of deliberately slow readers pushes one server well past saturation
// and holds it there, and the brownout ladder must visibly engage — at least
// one rung up, with transitions observable — then step all the way back down
// once the fleet hangs up. Canary fetchers launched at peak pressure must
// still finish byte-identical: they absorb BUSY refusals while the ladder
// sits at reject and are admitted as it unwinds, which is the whole point of
// lossless degradation. The run is reproducible from -seed; exact
// offered == sent + shed accounting is re-checked after teardown.
func runBrownoutWave(opt options, out io.Writer, lg *log.Logger, sum *loadSummary) error {
	fleetSize := opt.sessions
	if opt.smoke {
		fleetSize = 128
	}
	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	p := rlnc.Params{BlockCount: opt.blockCount, BlockSize: opt.blockSize}
	media := makeMedia(opt.segments*p.SegmentSize()-13, opt.seed)

	var transitions int
	srv, err := netio.NewServer(media, p,
		// A shallow queue and wide write deadlines: slow readers must
		// saturate the queues (occupancy and pump stalls are the pressure
		// signal), not be evicted as hostile peers.
		netio.WithQueueDepth(8),
		netio.WithWriteDeadline(30*time.Second),
		netio.WithWriteRetries(4),
		netio.WithServerSeed(opt.seed),
		netio.WithMetricsRegistry(reg),
		netio.WithRetryAfter(20*time.Millisecond),
		netio.WithBrownout(netio.BrownoutConfig{
			Interval: 25 * time.Millisecond,
			StepUp:   0.5,
			StepDown: 0.1,
			Hold:     3,
			OnTransition: func(from, to netio.BrownoutRung, pressure float64) {
				transitions++
				lg.Printf("brownout: %s -> %s (pressure %.2f)", from, to, pressure)
			},
		}))
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(serveCtx, l) }()
	defer func() {
		srv.Shutdown()
		stopServe()
		l.Close()
		<-serveDone
	}()
	addr := l.Addr().String()

	// The overload: every session reads one record then naps, so the queues
	// stay pinned full no matter how fast the pumps produce.
	lg.Printf("brownout wave: ramping %d slow readers", fleetSize)
	var (
		fleetMu sync.Mutex
		fleet   []*netio.RawClient
		drain   sync.WaitGroup
	)
	closeFleet := func() {
		fleetMu.Lock()
		for _, rc := range fleet {
			rc.Close()
		}
		fleet = nil
		fleetMu.Unlock()
		drain.Wait()
	}
	defer closeFleet()
	for off := 0; off < fleetSize; off += opt.rampChunk {
		n := min(opt.rampChunk, fleetSize-off)
		errc := make(chan error, n)
		var chunk sync.WaitGroup
		for i := 0; i < n; i++ {
			chunk.Add(1)
			go func() {
				defer chunk.Done()
				conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
				if err != nil {
					errc <- err
					return
				}
				rc, err := netio.NewRawClient(conn)
				if err != nil {
					errc <- err
					return
				}
				fleetMu.Lock()
				fleet = append(fleet, rc)
				fleetMu.Unlock()
				drain.Add(1)
				go func() {
					defer drain.Done()
					for {
						if _, err := rc.Next(); err != nil {
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
				}()
			}()
		}
		chunk.Wait()
		close(errc)
		for err := range errc {
			return fmt.Errorf("ramp: %w", err)
		}
	}

	// Gate 1: the ladder engages under sustained pressure.
	engageStart := time.Now()
	peak := netio.BrownoutOff
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if r := srv.Rung(); r > peak {
			peak = r
		}
		if peak > netio.BrownoutOff {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ladder never engaged under %d slow readers (snapshot %+v)",
				fleetSize, srv.Snapshot().CounterView)
		}
	}
	lg.Printf("ladder engaged (rung %s) %v after ramp", srv.Rung(), time.Since(engageStart).Round(time.Millisecond))
	sum.Invariants["ladder_engaged"] = true

	// Canaries launch at peak pressure: BUSY refusals while the ladder sits
	// at reject, admission as it unwinds, and a byte-identical payload
	// regardless.
	canaryCtx, cancelCanaries := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelCanaries()
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	type canaryResult struct {
		err  error
		busy int
	}
	canaryDone := make(chan canaryResult, opt.canaries)
	for i := 0; i < opt.canaries; i++ {
		go func(i int) {
			f := netio.NewFetcher(dial,
				netio.WithMaxAttempts(0),
				netio.WithBackoff(10*time.Millisecond, 250*time.Millisecond),
				netio.WithBackoffSeed(opt.seed+int64(i)))
			fres, err := f.Fetch(canaryCtx)
			if err != nil {
				canaryDone <- canaryResult{err: fmt.Errorf("canary %d: %w", i, err)}
				return
			}
			if !bytes.Equal(fres.Payload, media) {
				canaryDone <- canaryResult{err: fmt.Errorf("canary %d: payload differs", i)}
				return
			}
			canaryDone <- canaryResult{busy: f.Stats().AdmissionBusy}
		}(i)
	}

	// Hold the saturation plateau, tracking the peak rung, then release.
	holdUntil := time.Now().Add(opt.settle + 500*time.Millisecond)
	for time.Now().Before(holdUntil) {
		if r := srv.Rung(); r > peak {
			peak = r
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeFleet()

	// Gate 2: with the pressure lifted the ladder steps all the way back.
	releaseStart := time.Now()
	for deadline := time.Now().Add(time.Minute); srv.Rung() != netio.BrownoutOff; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("ladder never stepped back down after release (rung %s)", srv.Rung())
		}
	}
	recovery := time.Since(releaseStart)
	lg.Printf("ladder back to off %v after release", recovery.Round(time.Millisecond))
	sum.Invariants["ladder_released"] = true
	sum.RecoveryNs = recovery.Nanoseconds()

	// Gate 3: every canary decodes byte-identical despite the brownout.
	busyTotal := 0
	for i := 0; i < opt.canaries; i++ {
		res := <-canaryDone
		if res.err != nil {
			return res.err
		}
		busyTotal += res.busy
	}

	// The canaries are load too — with shallow queues their own decode churn
	// can tick the ladder back up — so wait for the controller to settle at
	// off again now that every client is gone before freezing the snapshot.
	for deadline := time.Now().Add(time.Minute); srv.Rung() != netio.BrownoutOff; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("ladder never settled at off after the canaries (rung %s)", srv.Rung())
		}
	}

	// Gate 4: exactness after teardown, scraped from the snapshot the
	// controller was driving.
	srv.Shutdown()
	final := srv.Snapshot()
	if !final.Consistent() {
		return fmt.Errorf("ledger after brownout wave: offered %d != sent %d + shed %d",
			final.BlocksOffered, final.BlocksSent, final.BlocksShed)
	}
	if final.BrownoutTransitions < 2 || transitions < 2 {
		return fmt.Errorf("only %d ladder transitions observed (callback saw %d), want >= 2",
			final.BrownoutTransitions, transitions)
	}
	if final.BrownoutRung != int(netio.BrownoutOff) {
		return fmt.Errorf("final snapshot rung %d, want off", final.BrownoutRung)
	}

	sum.Invariants["canaries_identical"] = true
	sum.Invariants["ledgers_balanced"] = true
	sum.PeakRung = int(peak)
	sum.Transits = final.BrownoutTransitions
	lg.Printf("brownout wave ok: peak rung %s, %d transitions, %d canary BUSY refusals honored, %d blocks shed",
		peak, final.BrownoutTransitions, busyTotal, final.BlocksShed)
	fmt.Fprintf(out, "BenchmarkServeBrownout/sessions=%d \t%8d\t%12d peak-rung\t%12d transitions\t%12d recover-ns\t%8d busy\n",
		fleetSize, 1, int(peak), final.BrownoutTransitions, recovery.Nanoseconds(), busyTotal)
	return nil
}
