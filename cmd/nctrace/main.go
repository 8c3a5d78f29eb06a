// Command nctrace exercises distributed tracing end to end: it runs a traced
// loopback mesh (origin → recoding relays → leaves) through faultnet chaos
// and a brownout stall wave, then collects the process span dump and
// reconstructs per-generation latency breakdowns — where each generation's
// time went across encode, queue offer, writev flush, relay recode, and leaf
// absorb — as an aligned table and optional JSON.
//
// With -smoke it is the `make trace-smoke` CI gate. The gates:
//
//   - causal integrity: zero orphan spans — every absorb/recode/flush span's
//     parent pump round is present in the dump, across all three tiers
//   - exemplars: at least one histogram exemplar links a tail observation of
//     netio.record_send or fetch.record_decode to a trace retrievable from
//     the dump
//   - flight recorder: the ring holds brownout, admission, and reconnect
//     events from the chaos run
//   - disabled-path cost: with tracing and the span sink off, Begin/End,
//     Emit, and stage spans allocate nothing (testing.AllocsPerRun == 0)
//   - overhead budget: the encode-batch/single-ref ratio stays within
//     -benchtol of the committed BENCH_host.json derived value, so the
//     tracing seams cannot silently tax the codec hot path
//
// On any gate failure the flight-recorder dump is written to -flight for
// postmortem and upload as a CI artifact.
//
// Usage:
//
//	nctrace -smoke
//	nctrace -seed 7 -leaves 8 -out breakdown.json -v
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/gf256"
	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nctrace:", err)
		os.Exit(1)
	}
}

// exemplarDoc is one captured histogram exemplar in the JSON output.
type exemplarDoc struct {
	Histogram string        `json:"histogram"`
	Trace     uint64        `json:"trace"`
	Span      uint64        `json:"span"`
	Value     time.Duration `json:"value_ns"`
	InDump    bool          `json:"trace_in_dump"`
}

// outDoc is the -out JSON shape: the assembled breakdown plus the exemplar
// and flight-event evidence the smoke gates check.
type outDoc struct {
	Assembly  *trace.Assembly `json:"assembly"`
	Exemplars []exemplarDoc   `json:"exemplars"`
	Flight    map[string]int  `json:"flight_events"`
	Published uint64          `json:"events_published"`
	Capacity  int             `json:"ring_capacity"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nctrace", flag.ContinueOnError)
	smoke := fs.Bool("smoke", false, "fixed shape plus all gates: the deterministic CI slice")
	seed := fs.Int64("seed", 7, "media / chaos / schedule seed")
	relays := fs.Int("relays", 2, "recoding relay count")
	leaves := fs.Int("leaves", 4, "leaf fetcher count")
	n := fs.Int("n", 16, "blocks per segment")
	k := fs.Int("k", 512, "bytes per block")
	size := fs.Int("size", 28_000, "media bytes")
	ring := fs.Int("ring", 1<<18, "flight-recorder ring capacity (events)")
	timeout := fs.Duration("timeout", 3*time.Minute, "overall deadline")
	out := fs.String("out", "", "write the breakdown + evidence JSON here")
	flight := fs.String("flight", "flight-trace.json", "write the flight dump here on gate failure")
	benchPath := fs.String("bench", "BENCH_host.json", "committed benchmark baseline for the overhead gate")
	benchTol := fs.Float64("benchtol", 0.75, "relative tolerance on the encode-batch ratio")
	exq := fs.Float64("exq", 0.99, "exemplar capture quantile")
	verbose := fs.Bool("v", false, "narrate the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		*seed, *relays, *leaves = 7, 2, 4
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	rec := trace.Enable(*ring)
	defer trace.Disable()
	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	// The two tail histograms the exemplar gate watches: origin/relay writev
	// flushes and leaf record decodes. SetSink already resolved the stages
	// into reg, so these return the very histograms the hot paths feed.
	sendH := reg.Histogram("netio.record_send", "span latency for stage netio.record_send")
	decodeH := reg.Histogram("fetch.record_decode", "span latency for stage fetch.record_decode")
	sendH.EnableExemplars(*exq)
	decodeH.EnableExemplars(*exq)

	rng := rand.New(rand.NewSource(*seed))
	media := make([]byte, *size)
	rng.Read(media)

	topo := mesh.Topology{
		Media:    media,
		Params:   rlnc.Params{BlockCount: *n, BlockSize: *k},
		Relays:   *relays,
		Leaves:   0, // leaves start after the stall wave
		Seed:     *seed,
		Traced:   true,
		Registry: reg,
		// Light chaos on both tiers: corruption exercises framing resync,
		// downstream resets force the reconnects the flight gate asserts.
		UpstreamFaults: &faultnet.Config{
			Seed: *seed + 1, CorruptEvery: 12_000, MaxReadChunk: 2048,
		},
		DownstreamFaults: &faultnet.Config{
			Seed: *seed + 2, ResetEvery: 5000, MaxReadChunk: 2048,
		},
		// Small queues, tiny batches, and a twitchy brownout controller so the
		// stall wave engages the ladder in milliseconds.
		RelayServerOpts: func(relay int) []netio.ServerOption {
			return []netio.ServerOption{
				netio.WithServePace(2 * time.Millisecond),
				netio.WithEncodeBatch(2),
				netio.WithQueueDepth(4),
				netio.WithRetryAfter(5 * time.Millisecond),
				netio.WithBrownout(netio.BrownoutConfig{
					Interval: 10 * time.Millisecond,
					StepUp:   0.5,
					StepDown: 0.05,
					Hold:     2,
				}),
			}
		},
	}
	m, err := mesh.New(topo)
	if err != nil {
		return err
	}
	if err := m.Start(ctx); err != nil {
		return err
	}
	defer m.Close()

	if err := m.WaitWarm(ctx); err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(stdout, "mesh warm: %d relays at full rank\n", *relays)
	}

	if err := stallWave(ctx, m); err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintln(stdout, "stall wave: brownout engaged and released")
	}

	wave := make([]*mesh.Leaf, 0, *leaves)
	for i := 0; i < *leaves; i++ {
		leaf, err := m.AddLeaf(ctx)
		if err != nil {
			return err
		}
		wave = append(wave, leaf)
	}
	if err := m.WaitLeaves(ctx, wave...); err != nil {
		return err
	}
	for _, leaf := range wave {
		res, err := leaf.Result()
		if err != nil {
			return fmt.Errorf("leaf %d: %w", leaf.ID, err)
		}
		if !bytes.Equal(res.Payload, media) {
			return fmt.Errorf("leaf %d: payload differs from origin media", leaf.ID)
		}
	}
	if *verbose {
		fmt.Fprintf(stdout, "leaf wave: %d transfers byte-identical\n", *leaves)
	}

	// Tear the mesh down before dumping so every root span (origin serve,
	// relay serves) has ended and the assembled trees are complete.
	m.Close()
	dump := trace.Dump()
	flightJSON := trace.DumpJSON()
	asm := trace.Assemble(dump)

	traces := make(map[trace.TraceID]bool)
	flightKinds := make(map[string]int)
	for i := range dump {
		if dump[i].Trace != 0 {
			traces[dump[i].Trace] = true
		}
		if dump[i].Kind != trace.KindSpan {
			flightKinds[dump[i].Kind.String()]++
		}
	}
	var exemplars []exemplarDoc
	for _, h := range []struct {
		name string
		hist *obs.Histogram
	}{{"netio.record_send", sendH}, {"fetch.record_decode", decodeH}} {
		if ex, ok := h.hist.Exemplar(); ok {
			exemplars = append(exemplars, exemplarDoc{
				Histogram: h.name,
				Trace:     ex.TraceID,
				Span:      ex.SpanID,
				Value:     ex.Value,
				InDump:    traces[trace.TraceID(ex.TraceID)],
			})
		}
	}

	fmt.Fprint(stdout, asm.Table())
	for _, ex := range exemplars {
		fmt.Fprintf(stdout, "exemplar %s: %v on trace %d span %d (in dump: %v)\n",
			ex.Histogram, ex.Value, ex.Trace, ex.Span, ex.InDump)
	}
	fmt.Fprintf(stdout, "flight events: %v (published %d / ring %d)\n",
		flightKinds, rec.Published(), rec.Cap())

	if *out != "" {
		doc := outDoc{
			Assembly:  asm,
			Exemplars: exemplars,
			Flight:    flightKinds,
			Published: rec.Published(),
			Capacity:  rec.Cap(),
		}
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
	}

	if !*smoke {
		return nil
	}

	// Gates run with tracing and the sink disabled — the last two measure
	// exactly the state every untraced production process runs in.
	trace.Disable()
	obs.SetSink(nil)

	var fails []string
	if asm.Spans == 0 || len(asm.Generations) == 0 {
		fails = append(fails, "no spans assembled")
	}
	if asm.Orphans != 0 {
		fails = append(fails, fmt.Sprintf("%d orphan spans", asm.Orphans))
	}
	if rec.Published() > uint64(rec.Cap()) {
		fails = append(fails, fmt.Sprintf("ring wrapped (%d published > %d capacity): resize -ring", rec.Published(), rec.Cap()))
	}
	for _, stage := range []string{"encode", "absorb", "recode"} {
		found := false
		for i := range asm.Generations {
			if asm.Generations[i].StageTotal(stage) > 0 {
				found = true
				break
			}
		}
		if !found {
			fails = append(fails, fmt.Sprintf("no generation carries stage %q", stage))
		}
	}
	linked := false
	for _, ex := range exemplars {
		if ex.InDump {
			linked = true
			break
		}
	}
	if !linked {
		fails = append(fails, "no histogram exemplar links to a trace in the dump")
	}
	for _, kind := range []string{"brownout", "admission", "reconnect"} {
		if flightKinds[kind] == 0 {
			fails = append(fails, fmt.Sprintf("flight ring holds no %s events", kind))
		}
	}
	if allocs := disabledPathAllocs(); allocs != 0 {
		fails = append(fails, fmt.Sprintf("disabled path allocates (%.1f allocs/op, want 0)", allocs))
	}
	if msg := benchGate(*benchPath, *benchTol, stdout); msg != "" {
		fails = append(fails, msg)
	}

	if len(fails) > 0 {
		if err := os.WriteFile(*flight, flightJSON, 0o644); err == nil {
			fmt.Fprintf(stdout, "flight dump written to %s\n", *flight)
		}
		return fmt.Errorf("trace smoke failed (seed %d):\n  - %s", *seed, strings.Join(fails, "\n  - "))
	}
	fmt.Fprintf(stdout, "trace smoke ok (seed %d): %d generations, %d spans, 0 orphans, %d exemplars, flight %v\n",
		*seed, len(asm.Generations), asm.Spans, len(exemplars), flightKinds)
	return nil
}

// stallWave pins the first relay with non-reading raw clients until its
// brownout ladder engages, then releases them and waits for it to step back
// to off — seeding the flight ring with brownout transitions both ways.
func stallWave(ctx context.Context, m *mesh.Mesh) error {
	target := m.Relays()[0]
	srv := target.Server()

	var stallers []*netio.RawClient
	defer func() {
		for _, c := range stallers {
			c.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", target.Addr())
		if err != nil {
			return err
		}
		raw, err := netio.NewRawClient(conn)
		if err != nil {
			conn.Close()
			return err
		}
		stallers = append(stallers, raw)
		go func() {
			for i := 0; i < 8; i++ {
				if _, err := raw.Next(); err != nil {
					return
				}
			}
		}()
	}
	for deadline := time.Now().Add(20 * time.Second); srv.Rung() == netio.BrownoutOff; {
		if time.Now().After(deadline) {
			return errors.New("brownout never engaged under stall")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(50 * time.Millisecond)
	for _, c := range stallers {
		c.Close()
	}
	stallers = nil
	for deadline := time.Now().Add(20 * time.Second); srv.Rung() != netio.BrownoutOff; {
		if time.Now().After(deadline) {
			return errors.New("brownout never released after stall")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// disabledPathAllocs measures the per-operation allocation count of every
// tracing entry point with the recorder and span sink off — the state all
// untraced production binaries run in. The budget is zero.
func disabledPathAllocs() float64 {
	st := obs.TracedStage("nctrace.disabled_probe", "probe")
	return testing.AllocsPerRun(1000, func() {
		st.StartTraced(obs.Trace{Node: "probe", ID: 1, Seg: -1}).End()
		st.Start().End()
		trace.Emit(trace.KindShed, "probe", "probe", -1, 0)
	})
}

// benchGate re-measures the encode-batch/single-ref time ratio at the
// paper's streaming shape and compares it against the committed derived
// value, with a wide relative tolerance (machines and race builds vary) —
// the backstop ensuring the tracing seams never tax the codec hot path.
// Returns a failure message, or "" when the gate passes or no baseline file
// is available to compare against.
func benchGate(path string, tol float64, stdout io.Writer) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stdout, "bench gate skipped: %v\n", err)
		return ""
	}
	var doc struct {
		Derived map[string]float64 `json:"derived"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Sprintf("bench baseline %s unreadable: %v", path, err)
	}
	ref, ok := doc.Derived["encode_batch_over_single_ref_pct"]
	if !ok || ref <= 0 {
		fmt.Fprintf(stdout, "bench gate skipped: %s has no encode_batch_over_single_ref_pct\n", path)
		return ""
	}

	p := rlnc.Params{BlockCount: 128, BlockSize: 4096}
	rng := rand.New(rand.NewSource(33))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := rlnc.SegmentFromData(1, p, data)
	if err != nil {
		return fmt.Sprintf("bench gate: %v", err)
	}
	const batch = 32
	coeffs := make([][]byte, batch)
	dsts := make([][]byte, batch)
	for i := range coeffs {
		coeffs[i] = make([]byte, p.BlockCount)
		for j := range coeffs[i] {
			coeffs[i][j] = byte(1 + rng.Intn(255))
		}
		dsts[i] = make([]byte, p.BlockSize)
	}
	single := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range dsts {
				encodeSingleRef(dsts[j], seg, coeffs[j])
			}
		}
	})
	batched := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := rlnc.EncodeBatchInto(dsts, seg, coeffs); err != nil {
				b.Fatal(err)
			}
		}
	})
	if single.NsPerOp() <= 0 {
		return "bench gate: degenerate single-ref measurement"
	}
	pct := 100 * float64(batched.NsPerOp()) / float64(single.NsPerOp())
	lo, hi := ref*(1-tol), ref*(1+tol)
	fmt.Fprintf(stdout, "bench gate: encode batch/single = %.1f%% (committed %.1f%%, accept %.1f–%.1f%%)\n",
		pct, ref, lo, hi)
	if pct < lo || pct > hi {
		return fmt.Sprintf("encode batch/single ratio %.1f%% outside %.1f–%.1f%% (committed %.1f%%)", pct, lo, hi, ref)
	}
	return ""
}

// encodeSingleRef is the seed single-block encode — one MulAddSlice sweep
// per coded block — mirrored from the rlnc benchmark baseline so the gate
// measures the same ratio the committed BENCH_host.json derives.
func encodeSingleRef(dst []byte, seg *rlnc.Segment, coeffs []byte) {
	k := seg.Params().BlockSize
	clear(dst[:k])
	for i, c := range coeffs {
		if c != 0 {
			gf256.MulAddSlice(dst[:k], seg.Block(i), c)
		}
	}
}
