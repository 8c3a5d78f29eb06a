package mesh

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

func testMedia(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	media := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(media)
	return media
}

// flightDumpOnFailure arms the flight recorder for the duration of a mesh
// gate and, if the gate fails, writes the event dump to flight-mesh.json at
// the repo root so CI can attach the postmortem to the failure.
func flightDumpOnFailure(t *testing.T) {
	t.Helper()
	trace.Enable(1 << 16)
	t.Cleanup(func() {
		defer trace.Disable()
		if !t.Failed() {
			return
		}
		path := filepath.Join("..", "..", "flight-mesh.json")
		if err := os.WriteFile(path, trace.DumpJSON(), 0o644); err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		t.Logf("flight recorder dumped to %s", path)
	})
}

// startOrigin brings up a plain origin server on loopback for single-relay
// tests.
func startOrigin(t *testing.T, media []byte, p rlnc.Params, opts ...netio.ServerOption) (*netio.Server, net.Listener) {
	t.Helper()
	srv, err := netio.NewServer(media, p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go srv.Serve(context.Background(), l)
	t.Cleanup(func() {
		srv.Shutdown()
		l.Close()
	})
	return srv, l
}

// TestRelayServesRecodedBlocks: origin → relay → leaf, all dense. The leaf
// only ever talks to the relay, and every record it absorbs is a recoded
// recombination — the decode must still be byte-identical (recoding
// obliviousness, paper Sec. 2).
func TestRelayServesRecodedBlocks(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 3*p.SegmentSize()-11, 5)
	_, ol := startOrigin(t, media, p, netio.WithServerSeed(2))

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "r0", Upstream: tcpDial(ol.Addr().String()), Listener: rln, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if relay.Info().Mode != netio.ModeDense {
		t.Fatalf("dense relay declares mode %v", relay.Info().Mode)
	}

	f := netio.NewFetcher(tcpDial(relay.Addr()))
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch through relay: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical through the relay")
	}
	full := 3 * p.BlockCount
	if relay.TotalRank() != full {
		t.Fatalf("relay rank %d, want %d (leaf finished before relay?)", relay.TotalRank(), full)
	}
}

// TestWaitWarmCountsLiveRelays: an origin paced to one round per hour can
// never warm a relay, so WaitWarm must give up at its context with the warm
// count in the error, and a killed relay must drop out of the count.
func TestWaitWarmCountsLiveRelays(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 64}
	m, err := New(Topology{
		Media: testMedia(t, 3*p.SegmentSize(), 13), Params: p,
		Relays: 2, OriginPace: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	expectCold := func(want string) {
		t.Helper()
		wctx, wcancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer wcancel()
		if err := m.WaitWarm(wctx); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("WaitWarm = %v, want error containing %q", err, want)
		}
	}
	expectCold("0/2 at full rank")
	if err := m.KillRelay("relay-0"); err != nil {
		t.Fatal(err)
	}
	expectCold("0/1 at full rank")
}

// TestRelayXorRecode: a systematic origin feeding an XOR-recode relay. The
// relay re-declares ModeSystematic downstream so its binary recombinations
// travel in the compact XNC2 encoding, and the leaf must still reassemble
// the object exactly.
func TestRelayXorRecode(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-7, 31)
	_, ol := startOrigin(t, media, p,
		netio.WithServerSeed(3), netio.WithWireMode(netio.ModeSystematic))

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "rx", Upstream: tcpDial(ol.Addr().String()), Listener: rln,
		Seed: 13, XorRecode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if relay.Info().Mode != netio.ModeSystematic {
		t.Fatalf("xor relay declares mode %v, want systematic", relay.Info().Mode)
	}

	f := netio.NewFetcher(tcpDial(relay.Addr()))
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch through xor relay: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical through the xor relay")
	}
}

// TestMeshSmoke is the end-to-end CI gate for the relay mesh: origin → 3
// recoding relays → leaves, over loopback with faultnet corruption and
// resets on both tiers, with the origin capped to 2 concurrent sessions.
//
// Three legs, one mesh:
//
//  1. Throughput: with the relays warmed, 4 leaves fetch through the relay
//     tier; then the same 4 fetches run directly against the
//     single-session origin through identical chaos. Every chaos reset
//     sends a direct fetcher back through the session cap to contend with
//     three rivals, while mesh leaves reconnect to relays that never turn
//     anyone away — the relay tier must move the aggregate faster, which
//     is the fan-out claim of the relay architecture.
//  2. Kill: 4 more leaves start, and once they are demonstrably
//     mid-transfer, 2 of the 3 relays are killed abruptly (heartbeats and
//     sockets). Every leaf must still complete byte-identical, with zero
//     rank regression across all its reconnects.
//  3. Control plane: the health detector must declare both kills dead and
//     remediation must have moved leaves, all visible in one Prometheus
//     text exposition scraped through the in-repo parser.
func TestMeshSmoke(t *testing.T) {
	flightDumpOnFailure(t)
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 4*p.SegmentSize()-21, 77)

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	// Wave-2 leaves (ID >= 4) carry the kill trigger in their record taps:
	// after 30 records tapped across the wave — mid-transfer, a leaf needs
	// 64+ — two relays die abruptly.
	var m *Mesh
	var wave2Records atomic.Int64
	var killOnce sync.Once
	killed := make(chan struct{})
	topo := Topology{
		Media:             media,
		Params:            p,
		Relays:            3,
		Leaves:            4,
		OriginMaxSessions: 1,
		// The origin models a capacity-constrained uplink: one session at a
		// time, pump rounds floored at 40ms (~100 records/s). That is the
		// regime a relay tier exists for — and it keeps the mesh-vs-baseline
		// comparison meaningful on single-core CI runners, where parallelism
		// alone cannot shorten wall clock but idle serving capacity can.
		OriginPace: 40 * time.Millisecond,
		// Systematic origin + GF(2) XOR relays: the cheap-relay fast path,
		// end to end — binary recombinations travel as compact XNC2 records.
		OriginMode: netio.ModeSystematic,
		XorRecode:  true,
		Seed:       7,
		Registry:   reg,
		// Failure-detector thresholds sized for -race CI machines: a starved
		// heartbeat ticker must not bury a live relay (death is terminal).
		Heartbeat: 10 * time.Millisecond,
		Sweep:     25 * time.Millisecond,
		Health: HealthConfig{
			SuspectAfter: 250 * time.Millisecond,
			DeadAfter:    time.Second,
		},
		UpstreamFaults: &faultnet.Config{
			Seed: 11, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		DownstreamFaults: &faultnet.Config{
			Seed: 13, CorruptEvery: 9000, ResetEvery: 5000, MaxReadChunk: 2048,
		},
		LeafFetchOpts: func(leaf int) []netio.FetcherOption {
			if leaf < 4 {
				return nil
			}
			return []netio.FetcherOption{netio.WithRecordTap(func(*rlnc.CodedBlock) {
				if wave2Records.Add(1) == 30 {
					killOnce.Do(func() {
						if err := m.KillRelay("relay-0"); err != nil {
							t.Error(err)
						}
						if err := m.KillRelay("relay-1"); err != nil {
							t.Error(err)
						}
						close(killed)
					})
				}
			})}
		},
	}
	var err error
	m, err = New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Warm the relay tier: every relay holds the full object before the
	// measured wave starts (their fetches released the origin's only
	// session slot on completion).
	warmCtx, warmCancel := context.WithTimeout(ctx, time.Minute)
	defer warmCancel()
	if err := m.WaitWarm(warmCtx); err != nil {
		t.Fatalf("%v: %+v", err, m.Pool().Snapshot())
	}

	// Leg 1a: the mesh wave.
	meshStart := time.Now()
	if err := m.StartLeaves(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitLeaves(ctx); err != nil {
		t.Fatalf("mesh wave: %v", err)
	}
	meshElapsed := time.Since(meshStart)
	for _, leaf := range m.Leaves() {
		res, _ := leaf.Result()
		if !bytes.Equal(res.Payload, media) {
			t.Fatalf("leaf %d payload differs", leaf.ID)
		}
		t.Logf("mesh leaf %d: %v, records %d, reconnects %d, stats %+v",
			leaf.ID, leaf.Duration(), leaf.Records(), leaf.Reconnects(), res.Stats)
	}

	// Leg 1b: the same four transfers straight off the session-capped
	// origin, through an identical chaos layer. Rejected connections (cap)
	// and injected resets both surface as reconnect attempts.
	var baseCtr faultnet.Counters
	var baseSeq atomic.Int64
	baseStart := time.Now()
	var wg sync.WaitGroup
	baseErr := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dial := chaosDial(*topo.DownstreamFaults, &baseCtr, &baseSeq, tcpDial(m.OriginAddr()))
			f := netio.NewFetcher(dial,
				netio.WithBackoff(2*time.Millisecond, 50*time.Millisecond),
				netio.WithBackoffSeed(int64(9000+i)))
			res, err := f.Fetch(ctx)
			if err != nil {
				baseErr[i] = err
				return
			}
			if !bytes.Equal(res.Payload, media) {
				baseErr[i] = errFetchDiffers
			}
		}(i)
	}
	wg.Wait()
	baseElapsed := time.Since(baseStart)
	for i, err := range baseErr {
		if err != nil {
			t.Fatalf("baseline fetch %d: %v", i, err)
		}
	}
	t.Logf("aggregate 4-leaf transfer: mesh %v, capped-origin baseline %v", meshElapsed, baseElapsed)
	if meshElapsed >= baseElapsed {
		t.Errorf("relay tier did not beat the capped origin: mesh %v >= baseline %v", meshElapsed, baseElapsed)
	}

	// Leg 2: a second wave of leaves, with 2 of 3 relays killed mid-way.
	wave2 := make([]*Leaf, 0, 4)
	for i := 0; i < 4; i++ {
		leaf, err := m.AddLeaf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wave2 = append(wave2, leaf)
	}
	if err := m.WaitLeaves(ctx, wave2...); err != nil {
		t.Fatalf("kill wave: %v (snapshot %+v)", err, m.Snapshot())
	}
	select {
	case <-killed:
	default:
		t.Fatal("kill trigger never fired: wave 2 finished under 30 records?")
	}
	for _, leaf := range wave2 {
		res, _ := leaf.Result()
		if !bytes.Equal(res.Payload, media) {
			t.Fatalf("post-kill leaf %d payload differs", leaf.ID)
		}
	}

	// Monotone rank: no leaf reconnect, across both waves and the kills,
	// may ever lose decoder rank.
	if v, _ := reg.CounterValue("mesh.rank_regressions_total"); v != 0 {
		t.Fatalf("rank regressed %d times across reconnects", v)
	}

	// Leg 3: the control plane saw it all. Death declaration lags the kill
	// by the detector thresholds, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := reg.CounterValue("mesh.relay_deaths_total"); v >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health detector declared %d deaths, want 2 (pool %+v)",
				func() int64 { v, _ := reg.CounterValue("mesh.relay_deaths_total"); return v }(),
				m.Pool().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Key()] = s.Value
	}
	for _, want := range []struct {
		name string
		min  float64
	}{
		{"mesh_remediations_total", 1},
		{"mesh_relay_deaths_total", 2},
		{"mesh_heartbeats_total", 1},
		{"mesh_records_tapped_total", float64(3 * 4 * p.BlockCount)}, // 3 relays warmed fully
		{"mesh_blocks_recoded_total", 1},
		{"mesh_assignments_total", 8},
		{"mesh_leaf_completions_total", 8},
		{"netio_sessions_total", 1},
		{"faultnet_up_resets", 1},
		{"faultnet_up_corruptions", 1},
		{"faultnet_down_resets", 1},
	} {
		if got, ok := byName[want.name]; !ok || got < want.min {
			t.Errorf("exposition %s = %v (present %v), want >= %v", want.name, got, ok, want.min)
		}
	}

	snap := m.Snapshot()
	if snap.Remediations < 1 {
		t.Fatalf("snapshot remediations = %d, want >= 1", snap.Remediations)
	}
	for _, lv := range snap.Leaves {
		if !lv.Done || lv.Error != "" {
			t.Fatalf("snapshot leaf %+v not cleanly done", lv)
		}
	}
}

// errFetchDiffers avoids a testing.T capture inside the baseline goroutine.
var errFetchDiffers = errDiff{}

type errDiff struct{}

func (errDiff) Error() string { return "payload differs" }

// TestMeshRollingRestart is the drain gate: relays are restarted in sequence
// under faultnet chaos while leaves fetch through them, and nothing may be
// lost. Each restart drains — new handshakes on the draining relay get a
// REDIRECT naming an active survivor, which connected leaves must follow with
// all their rank — then rejoins the rotation at a fresh address. Afterwards:
// zero failed leaves, every payload byte-identical, zero rank regressions,
// at least one REDIRECT honored per drain, and the per-relay ledgers —
// drained and surviving alike, accumulated across restarts — balance exactly
// in one scraped exposition.
func TestMeshRollingRestart(t *testing.T) {
	flightDumpOnFailure(t)
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 4*p.SegmentSize()-13, 91)

	reg := obs.NewRegistry()
	topo := Topology{
		Media:      media,
		Params:     p,
		Relays:     3,
		Leaves:     0, // leaves start per wave below
		OriginMode: netio.ModeSystematic,
		XorRecode:  true,
		Seed:       19,
		Registry:   reg,
		Heartbeat:  10 * time.Millisecond,
		// Remediation swept rarely on purpose: the REDIRECT protocol path,
		// not the control-plane route sweep, must be what walks leaves off
		// the draining relays.
		Sweep: 5 * time.Second,
		Health: HealthConfig{
			SuspectAfter: 2 * time.Second,
			DeadAfter:    10 * time.Second,
		},
		UpstreamFaults: &faultnet.Config{
			Seed: 41, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		// Reset-heavy downstream chaos: every leaf connection dies within
		// ~8KB — well short of the ~20KB object — so every leaf reconnects
		// through admission repeatedly and a drain is guaranteed to be seen.
		DownstreamFaults: &faultnet.Config{
			Seed: 43, CorruptEvery: 9000, ResetEvery: 4000, MaxReadChunk: 2048,
		},
		// Paced relay serving keeps each wave in flight long enough to drain
		// a relay mid-transfer; the retry-after hint exercises the
		// RelayServerOpts plumbing end to end.
		RelayServerOpts: func(relay int) []netio.ServerOption {
			return []netio.ServerOption{
				netio.WithServePace(3 * time.Millisecond),
				netio.WithEncodeBatch(1),
				netio.WithRetryAfter(5 * time.Millisecond),
			}
		},
	}
	m, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Warm every relay so leaves never depend on the origin.
	warmCtx, warmCancel := context.WithTimeout(ctx, time.Minute)
	defer warmCancel()
	if err := m.WaitWarm(warmCtx); err != nil {
		t.Fatalf("%v: %+v", err, m.Pool().Snapshot())
	}

	redirected := func(leaves []*Leaf) int {
		total := 0
		for _, leaf := range leaves {
			total += leaf.FetchStats().AdmissionRedirected
		}
		return total
	}

	// rollRestart drains relayID mid-wave and verifies the drain was followed:
	// a pinned raw session holds the drain window open until at least one leaf
	// has been walked to a survivor by a REDIRECT decision.
	rollRestart := func(relayID string, relay *Relay, leaves []*Leaf) {
		t.Helper()
		pinConn, err := net.Dial("tcp", relay.Addr())
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := netio.NewRawClient(pinConn)
		if err != nil {
			t.Fatal(err)
		}
		pinDone := make(chan struct{})
		go func() {
			defer close(pinDone)
			for {
				if _, err := pinned.Next(); err != nil {
					return
				}
			}
		}()

		// Every leaf must be demonstrably mid-transfer before the drain.
		for deadline := time.Now().Add(30 * time.Second); ; {
			moving := 0
			for _, leaf := range leaves {
				if leaf.Records() > 0 {
					moving++
				}
			}
			if moving == len(leaves) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("wave never started moving before draining %s", relayID)
			}
			time.Sleep(time.Millisecond)
		}

		before := redirected(leaves)
		restartDone := make(chan error, 1)
		go func() { restartDone <- m.RestartRelay(ctx, relayID) }()

		// The pool must report the drain, and some leaf must follow the
		// REDIRECT to a survivor while the pinned session holds the drain open.
		sawDraining := false
		for deadline := time.Now().Add(30 * time.Second); redirected(leaves) == before; {
			if st, ok := m.Pool().StateOf(relayID); ok && st == StateDraining {
				sawDraining = true
			}
			if time.Now().After(deadline) {
				t.Fatalf("no leaf followed a REDIRECT off draining %s (pool %+v)",
					relayID, m.Pool().Snapshot())
			}
			time.Sleep(time.Millisecond)
		}
		if !sawDraining {
			if st, ok := m.Pool().StateOf(relayID); !ok || st != StateDraining {
				t.Fatalf("pool never reported %s draining (now %v)", relayID, st)
			}
		}

		// Release the drain window; the restart must complete and the relay
		// must rejoin the active rotation at its new address.
		pinned.Close()
		<-pinDone
		if err := <-restartDone; err != nil {
			t.Fatalf("RestartRelay(%s): %v", relayID, err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			if st, _ := m.Pool().StateOf(relayID); st == StateActive {
				break
			}
			if time.Now().After(deadline) {
				st, _ := m.Pool().StateOf(relayID)
				t.Fatalf("%s never rejoined the rotation (state %v)", relayID, st)
			}
			time.Sleep(time.Millisecond)
		}
		addr, _ := m.Pool().Addr(relayID)
		if addr != relay.Addr() {
			t.Fatalf("pool addr %q disagrees with relay addr %q after restart", addr, relay.Addr())
		}
	}

	// A wave starts only once the pool lists every relay as active. A relay
	// that has not heartbeated yet (warm-up can finish inside the first
	// heartbeat period) or has only just rejoined is skipped by assignment
	// and is no REDIRECT target: a wave assigned then piles every leaf onto
	// the one active relay, or drains a relay with no survivor to name and
	// answers BUSY until remediation's sweep moves the leaf.
	allActive := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); len(m.Pool().InState(StateActive)) < topo.Relays; {
			if time.Now().After(deadline) {
				t.Fatalf("relays never all active: %+v", m.Pool().Snapshot())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Rolling restarts: one relay per wave, in sequence.
	for round, relayID := range []string{"relay-0", "relay-1"} {
		var relay *Relay
		for _, r := range m.Relays() {
			if r.ID() == relayID {
				relay = r
			}
		}
		allActive()
		wave := make([]*Leaf, 0, 3)
		for i := 0; i < 3; i++ {
			leaf, err := m.AddLeaf(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wave = append(wave, leaf)
		}
		rollRestart(relayID, relay, wave)
		if err := m.WaitLeaves(ctx, wave...); err != nil {
			t.Fatalf("wave %d: %v (snapshot %+v)", round, err, m.Snapshot())
		}
		for _, leaf := range wave {
			res, _ := leaf.Result()
			if !bytes.Equal(res.Payload, media) {
				t.Fatalf("wave %d leaf %d payload differs", round, leaf.ID)
			}
		}
	}

	// Monotone rank across every reconnect, redirects included.
	if v, _ := reg.CounterValue("mesh.rank_regressions_total"); v != 0 {
		t.Fatalf("rank regressed %d times across reconnects", v)
	}

	// The per-relay ledgers — drained relays across their restarts and the
	// untouched survivor alike — must balance exactly once sessions settle.
	balanced := func() bool {
		for _, r := range m.Relays() {
			if v := r.Ledger(); v.BlocksOffered != v.BlocksSent+v.BlocksShed {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !balanced(); {
		if time.Now().After(deadline) {
			for _, r := range m.Relays() {
				t.Logf("%s ledger: %+v", r.ID(), r.Ledger())
			}
			t.Fatal("relay ledgers never balanced after the waves")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the same invariant must be visible in one scraped exposition.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Key()] = s.Value
	}
	for i := range m.Relays() {
		offered := byName[fmt.Sprintf("mesh_relay%d_blocks_offered", i)]
		sent := byName[fmt.Sprintf("mesh_relay%d_blocks_sent", i)]
		shed := byName[fmt.Sprintf("mesh_relay%d_blocks_shed", i)]
		if offered == 0 {
			t.Errorf("relay %d exposition ledger empty", i)
		}
		if offered != sent+shed {
			t.Errorf("relay %d exposition ledger: offered %v != sent %v + shed %v",
				i, offered, sent, shed)
		}
	}
}
