// Command ncsoak is the randomized chaos soak: a seeded schedule of leaf
// waves, graceful drain-restarts, abrupt relay kills, and slow-client
// brownout pressure runs against an in-process recoding mesh whose links all
// pass through faultnet corruption and resets. The soak is a property
// checker, not a benchmark — after the schedule it asserts the degradation
// invariants the paper's delivery model promises:
//
//   - every completed leaf transfer is byte-identical to the origin media
//   - decoder rank never regresses across reconnects, redirects, or
//     remediations (mesh.rank_regressions_total == 0)
//   - every relay's traffic ledger balances exactly — offered == sent +
//     shed — across every server it ran, drained, killed, or survived
//   - the brownout ladder engaged at least one rung under pressure and
//     stepped back to off when the pressure lifted
//   - the process leaks no goroutines: after teardown the count returns to
//     its pre-mesh level
//
// The schedule is fully determined by -seed, so any failure reproduces from
// its seed. With -smoke the run pins seed and event count to a fixed,
// CI-sized slice (~a dozen events, well under 30s); that is the `make
// soak-smoke` gate.
//
// Usage:
//
//	ncsoak -smoke
//	ncsoak -seed 42 -events 30 -relays 4 -v
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
	"runtime"
	"strings"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ncsoak:", err)
		os.Exit(1)
	}
}

// event is one step of the soak schedule.
type event int

const (
	evLeafWave event = iota // a wave of leaves fetches to completion
	evDrain                 // graceful drain-restart of one relay mid-wave
	evStall                 // slow clients pin a relay until brownout engages
	evKill                  // abrupt relay kill mid-wave (remediation reroutes)
)

func (e event) String() string {
	return [...]string{"leaf-wave", "drain-restart", "brownout-stall", "kill"}[e]
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ncsoak", flag.ContinueOnError)
	smoke := fs.Bool("smoke", false, "fixed seed and event count: the deterministic CI slice")
	seed := fs.Int64("seed", 1, "schedule / media / chaos seed (any failure reproduces from it)")
	events := fs.Int("events", 20, "schedule length")
	relays := fs.Int("relays", 3, "relay count (at most relays-2 are ever killed)")
	n := fs.Int("n", 16, "blocks per segment")
	k := fs.Int("k", 512, "bytes per block")
	size := fs.Int("size", 28_000, "media bytes")
	timeout := fs.Duration("timeout", 4*time.Minute, "overall soak deadline")
	verbose := fs.Bool("v", false, "log every event and brownout transition")
	summaryPath := fs.String("summary", "", "write a machine-readable JSON run summary to this path")
	flightRing := fs.Int("flight", 1<<16, "flight-recorder ring capacity in events (0 = off)")
	flightPath := fs.String("flight-out", "flight-soak.json", "write the flight-recorder dump here when the soak fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		*seed, *events, *relays = 1, 12, 3
	}
	if *relays < 3 {
		return fmt.Errorf("-relays %d: the soak needs at least 3 (drains redirect to a survivor)", *relays)
	}

	// The flight ring records admission, brownout, shed, reconnect, and fault
	// events through the whole schedule; a failing soak dumps it for the
	// postmortem alongside the reproducing seed.
	if *flightRing > 0 {
		trace.Enable(*flightRing)
		defer trace.Disable()
	}
	sum := &runSummary{Seed: *seed, Invariants: map[string]bool{}}
	err := soakMain(*seed, *events, *relays, *n, *k, *size, *timeout, *verbose, stdout, sum)
	sum.OK = err == nil
	if err != nil {
		sum.Error = err.Error()
		if *flightRing > 0 && *flightPath != "" {
			if werr := os.WriteFile(*flightPath, trace.DumpJSON(), 0o644); werr == nil {
				fmt.Fprintf(stdout, "flight dump written to %s\n", *flightPath)
			}
		}
	}
	if *summaryPath != "" {
		b, merr := json.MarshalIndent(sum, "", " ")
		if merr != nil {
			return errors.Join(err, merr)
		}
		b = append(b, '\n')
		if werr := os.WriteFile(*summaryPath, b, 0o644); werr != nil {
			return errors.Join(err, werr)
		}
	}
	return err
}

// runSummary is the machine-readable outcome of one soak: the reproducing
// seed, the schedule shape, the per-invariant verdicts, and the degradation
// headline numbers — written to -summary and uploaded as a CI artifact.
type runSummary struct {
	OK         bool            `json:"ok"`
	Seed       int64           `json:"seed"`
	Events     int             `json:"events"`
	ElapsedS   float64         `json:"elapsed_s"`
	LeavesDone int             `json:"leaves_done"`
	Drains     int             `json:"drains"`
	Kills      int             `json:"kills"`
	Stalls     int             `json:"stall_waves"`
	Redirects  int             `json:"redirects_honored"`
	PeakRung   int             `json:"brownout_peak_rung"`
	Invariants map[string]bool `json:"invariants"`
	Error      string          `json:"error,omitempty"`
}

func soakMain(seedV int64, eventsV, relaysV, nV, kV, sizeV int, timeoutV time.Duration, verboseV bool, stdout io.Writer, sum *runSummary) error {
	seed, events, relays, n, k, size := &seedV, &eventsV, &relaysV, &nV, &kV, &sizeV
	timeout, verbose := &timeoutV, &verboseV

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	rng := rand.New(rand.NewSource(*seed))
	media := make([]byte, *size)
	rng.Read(media)
	schedule := makeSchedule(rng, *events)
	sum.Events = len(schedule)

	// The leak check brackets the whole mesh lifetime.
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	topo := mesh.Topology{
		Media:      media,
		Params:     rlnc.Params{BlockCount: *n, BlockSize: *k},
		Relays:     *relays,
		OriginMode: netio.ModeSystematic,
		XorRecode:  true,
		Seed:       *seed,
		Registry:   reg,
		Heartbeat:  10 * time.Millisecond,
		Sweep:      25 * time.Millisecond,
		Health:     mesh.HealthConfig{SuspectAfter: 500 * time.Millisecond, DeadAfter: 2 * time.Second},
		UpstreamFaults: &faultnet.Config{
			Seed: *seed + 1, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		DownstreamFaults: &faultnet.Config{
			Seed: *seed + 2, CorruptEvery: 9000, ResetEvery: 5000, MaxReadChunk: 2048,
		},
		// Every relay (and every replacement server a drain installs) runs
		// the brownout controller with a twitchy interval so stall waves
		// engage the ladder in milliseconds, plus a mild pace so drains land
		// mid-transfer rather than after the wave has already finished.
		RelayServerOpts: func(relay int) []netio.ServerOption {
			opts := []netio.ServerOption{
				netio.WithServePace(2 * time.Millisecond),
				netio.WithEncodeBatch(2),
				netio.WithQueueDepth(4),
				netio.WithRetryAfter(5 * time.Millisecond),
			}
			bo := netio.BrownoutConfig{
				Interval: 10 * time.Millisecond,
				StepUp:   0.5,
				StepDown: 0.05,
				Hold:     2,
			}
			if *verbose {
				bo.OnTransition = func(from, to netio.BrownoutRung, p float64) {
					fmt.Fprintf(stdout, "  brownout relay-%d: %s -> %s (pressure %.2f)\n", relay, from, to, p)
				}
			}
			return append(opts, netio.WithBrownout(bo))
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

	s := &soak{
		m: m, media: media, rng: rng, stdout: stdout, verbose: *verbose,
		maxKills: *relays - 2,
	}
	if err := s.m.WaitWarm(ctx); err != nil {
		return err
	}

	start := time.Now()
	for i, ev := range schedule {
		if *verbose {
			fmt.Fprintf(stdout, "event %d/%d: %s\n", i+1, len(schedule), ev)
		}
		if err := s.step(ctx, ev); err != nil {
			return fmt.Errorf("event %d (%s, seed %d): %w", i+1, ev, *seed, err)
		}
	}
	elapsed := time.Since(start)
	sum.ElapsedS = elapsed.Seconds()
	sum.LeavesDone, sum.Drains, sum.Kills = s.leavesDone, s.drains, s.kills
	sum.Stalls, sum.Redirects, sum.PeakRung = s.stalls, s.redirects, s.peakRung
	sum.Invariants["payloads_identical"] = true // every wave byte-verified in step

	if err := s.checkInvariants(ctx, reg, sum); err != nil {
		return fmt.Errorf("invariant (seed %d): %w", *seed, err)
	}

	// Teardown, then the goroutine count must settle back to baseline. The
	// sink is detached first so registry closures don't pin the mesh.
	m.Close()
	obs.SetSink(nil)
	if err := waitGoroutines(baseGoroutines+3, 10*time.Second); err != nil {
		sum.Invariants["no_goroutine_leak"] = false
		return fmt.Errorf("leak (seed %d): %w", *seed, err)
	}
	sum.Invariants["no_goroutine_leak"] = true

	fmt.Fprintf(stdout,
		"soak ok (seed %d): %d events in %v — %d leaves byte-identical, %d drains, %d kills, %d stall waves, %d redirects honored, brownout peak rung %d\n",
		*seed, len(schedule), elapsed.Round(time.Millisecond), s.leavesDone, s.drains, s.kills, s.stalls, s.redirects, s.peakRung)
	return nil
}

// makeSchedule draws the event sequence from rng, then guarantees coverage:
// a soak that happened to roll no drain or no stall wave would gate nothing,
// so any missing mandatory event type is appended (deterministically — the
// append depends only on the draw).
func makeSchedule(rng *rand.Rand, events int) []event {
	schedule := make([]event, 0, events+3)
	for i := 0; i < events; i++ {
		switch roll := rng.Intn(10); {
		case roll < 4:
			schedule = append(schedule, evLeafWave)
		case roll < 7:
			schedule = append(schedule, evDrain)
		case roll < 9:
			schedule = append(schedule, evStall)
		default:
			schedule = append(schedule, evKill)
		}
	}
	for _, must := range []event{evLeafWave, evDrain, evStall} {
		seen := false
		for _, ev := range schedule {
			if ev == must {
				seen = true
				break
			}
		}
		if !seen {
			schedule = append(schedule, must)
		}
	}
	return schedule
}

// soak executes schedule events sequentially against one mesh and tallies
// what the invariant checks need.
type soak struct {
	m       *mesh.Mesh
	media   []byte
	rng     *rand.Rand
	stdout  io.Writer
	verbose bool

	maxKills   int
	kills      int
	drains     int
	stalls     int
	leavesDone int
	redirects  int
	peakRung   int
}

func (s *soak) step(ctx context.Context, ev event) error {
	switch ev {
	case evLeafWave:
		return s.leafWave(ctx, 2+s.rng.Intn(3), "")
	case evDrain:
		id, ok := s.pickRelay(mesh.StateActive)
		if !ok {
			return s.leafWave(ctx, 2, "") // no drainable relay left; keep soaking
		}
		s.drains++
		return s.leafWave(ctx, 2, id)
	case evStall:
		s.stalls++
		return s.stallWave(ctx)
	case evKill:
		if s.kills >= s.maxKills {
			return s.leafWave(ctx, 2, "") // kill budget spent; keep soaking
		}
		id, ok := s.pickRelay(mesh.StateActive)
		if !ok {
			return s.leafWave(ctx, 2, "")
		}
		s.kills++
		return s.killWave(ctx, id)
	}
	return fmt.Errorf("unknown event %d", ev)
}

// pickRelay draws a uniformly random relay currently in state st. The draw
// consumes rng even when it fails, keeping the schedule deterministic.
func (s *soak) pickRelay(st mesh.State) (string, bool) {
	ids := s.m.Pool().InState(st)
	if len(ids) == 0 {
		s.rng.Intn(1)
		return "", false
	}
	return ids[s.rng.Intn(len(ids))], true
}

// leafWave runs count leaves to completion and byte-verifies each. When
// drainID is set, that relay is gracefully drain-restarted while the wave is
// in flight — its leaves must follow the REDIRECT (or be remediated) and
// still finish intact.
func (s *soak) leafWave(ctx context.Context, count int, drainID string) error {
	wave := make([]*mesh.Leaf, 0, count)
	for i := 0; i < count; i++ {
		leaf, err := s.m.AddLeaf(ctx)
		if err != nil {
			return err
		}
		wave = append(wave, leaf)
	}
	if drainID != "" {
		// Wait for motion so the drain lands mid-transfer, not before it.
		for deadline := time.Now().Add(30 * time.Second); ; {
			moving := 0
			for _, leaf := range wave {
				if leaf.Records() > 0 {
					moving++
				}
			}
			if moving == len(wave) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("wave never started moving before draining %s", drainID)
			}
			time.Sleep(time.Millisecond)
		}
		dctx, dcancel := context.WithTimeout(ctx, 30*time.Second)
		err := s.m.RestartRelay(dctx, drainID)
		dcancel()
		if err != nil {
			return fmt.Errorf("drain-restart %s: %w", drainID, err)
		}
		if s.verbose {
			fmt.Fprintf(s.stdout, "  drained %s -> back at %s\n", drainID, s.addrOf(drainID))
		}
	}
	if err := s.m.WaitLeaves(ctx, wave...); err != nil {
		return err
	}
	for _, leaf := range wave {
		res, err := leaf.Result()
		if err != nil {
			return fmt.Errorf("leaf %d: %w", leaf.ID, err)
		}
		if !bytes.Equal(res.Payload, s.media) {
			return fmt.Errorf("leaf %d: payload differs from origin media", leaf.ID)
		}
		s.redirects += leaf.FetchStats().AdmissionRedirected
		s.leavesDone++
	}
	return nil
}

// killWave kills relay id mid-wave; remediation must reroute its leaves and
// the wave must still finish byte-identical.
func (s *soak) killWave(ctx context.Context, id string) error {
	wave := make([]*mesh.Leaf, 0, 2)
	for i := 0; i < 2; i++ {
		leaf, err := s.m.AddLeaf(ctx)
		if err != nil {
			return err
		}
		wave = append(wave, leaf)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		moving := 0
		for _, leaf := range wave {
			if leaf.Records() > 0 {
				moving++
			}
		}
		if moving == len(wave) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wave never started moving before killing %s", id)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.m.KillRelay(id); err != nil {
		return err
	}
	if s.verbose {
		fmt.Fprintf(s.stdout, "  killed %s\n", id)
	}
	if err := s.m.WaitLeaves(ctx, wave...); err != nil {
		return err
	}
	for _, leaf := range wave {
		res, err := leaf.Result()
		if err != nil {
			return fmt.Errorf("leaf %d: %w", leaf.ID, err)
		}
		if !bytes.Equal(res.Payload, s.media) {
			return fmt.Errorf("leaf %d: payload differs from origin media", leaf.ID)
		}
		s.redirects += leaf.FetchStats().AdmissionRedirected
		s.leavesDone++
	}
	return nil
}

// stallWave aims slow clients at one relay until its brownout ladder climbs
// at least one rung, then releases them and waits for the ladder to step all
// the way back down. The clients hold raw sessions open without reading, so
// pressure comes from queue occupancy and pump stalls — exactly the signal
// the controller samples. A relay that answers a stall dial with BUSY is
// already at the reject rung, which counts as engaged.
func (s *soak) stallWave(ctx context.Context) error {
	id, ok := s.pickRelay(mesh.StateActive)
	if !ok {
		return errors.New("no active relay to stall")
	}
	var target *mesh.Relay
	for _, r := range s.m.Relays() {
		if r.ID() == id {
			target = r
			break
		}
	}
	srv := target.Server()

	var stallers []*netio.RawClient
	defer func() {
		for _, c := range stallers {
			c.Close()
		}
	}()
	// A BUSY answer is the reject rung speaking: the ladder is already
	// engaged — the leaf wave before this one can leave it there — so stop
	// dialing and go straight to hold and release.
	busy := false
	for i := 0; i < 4 && !busy; i++ {
		conn, err := net.Dial("tcp", target.Addr())
		if err != nil {
			return err
		}
		raw, err := netio.NewRawClient(conn)
		if errors.Is(err, netio.ErrAdmissionBusy) {
			conn.Close()
			busy = true
			s.peakRung = max(s.peakRung, int(netio.BrownoutReject))
			if s.verbose {
				fmt.Fprintf(s.stdout, "  stall dial %d on %s answered BUSY (rung %s): ladder already engaged\n", i, id, srv.Rung())
			}
			break
		}
		if err != nil {
			conn.Close()
			return err
		}
		stallers = append(stallers, raw)
		// Drain a handful of records, then stop reading: the session stays
		// live while the server's queue backs up behind the dead socket.
		go func() {
			for i := 0; i < 8; i++ {
				if _, err := raw.Next(); err != nil {
					return
				}
			}
		}()
	}

	for deadline := time.Now().Add(20 * time.Second); !busy; {
		if r := int(srv.Rung()); r > int(netio.BrownoutOff) {
			if r > s.peakRung {
				s.peakRung = r
			}
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("brownout on %s never engaged under stall (snapshot %+v)", id, srv.Snapshot().CounterView)
		}
		time.Sleep(time.Millisecond)
	}
	// Hold the pressure briefly — the ladder may climb further — then
	// release.
	time.Sleep(100 * time.Millisecond)
	if r := int(srv.Rung()); r > s.peakRung {
		s.peakRung = r
	}
	for _, c := range stallers {
		c.Close()
	}
	stallers = nil

	for deadline := time.Now().Add(20 * time.Second); srv.Rung() != netio.BrownoutOff; {
		if time.Now().After(deadline) {
			return fmt.Errorf("brownout on %s never stepped back down after release (rung %s)", id, srv.Rung())
		}
		time.Sleep(time.Millisecond)
	}
	if s.verbose {
		fmt.Fprintf(s.stdout, "  stalled %s: peak rung %d, transitions %d, back to off\n",
			id, s.peakRung, srv.Snapshot().BrownoutTransitions)
	}
	return nil
}

func (s *soak) addrOf(id string) string {
	addr, _ := s.m.Pool().Addr(id)
	return addr
}

// checkInvariants asserts the soak's promises after the schedule completes,
// recording each verdict into sum for the machine-readable summary.
func (s *soak) checkInvariants(ctx context.Context, reg *obs.Registry, sum *runSummary) error {
	v, _ := reg.CounterValue("mesh.rank_regressions_total")
	sum.Invariants["rank_monotone"] = v == 0
	if v != 0 {
		return fmt.Errorf("rank regressed %d times", v)
	}
	sum.Invariants["brownout_engaged"] = s.peakRung > 0
	if s.peakRung == 0 {
		return errors.New("brownout ladder never engaged")
	}

	// Every relay's ledger — across drains, kills, and survivors — must
	// balance exactly once its sessions settle.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var unbalanced []string
		for _, r := range s.m.Relays() {
			if v := r.Ledger(); !v.Consistent() {
				unbalanced = append(unbalanced,
					fmt.Sprintf("%s: offered %d != sent %d + shed %d", r.ID(), v.BlocksOffered, v.BlocksSent, v.BlocksShed))
			}
		}
		if len(unbalanced) == 0 {
			sum.Invariants["ledgers_balanced"] = true
			return nil
		}
		if time.Now().After(deadline) {
			sum.Invariants["ledgers_balanced"] = false
			return fmt.Errorf("ledgers never balanced: %s", strings.Join(unbalanced, "; "))
		}
		select {
		case <-ctx.Done():
			sum.Invariants["ledgers_balanced"] = false
			return fmt.Errorf("ledgers never balanced: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitGoroutines polls until the live goroutine count settles at or below
// limit, or the deadline passes.
func waitGoroutines(limit int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= limit {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines still live (limit %d):\n%s", runtime.NumGoroutine(), limit, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
