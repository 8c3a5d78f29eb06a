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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/gate"
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
			fmt.Fprintln(stdout, gate.DumpFlight(*flightPath, trace.DumpJSON()))
		}
	}
	if *summaryPath != "" {
		err = errors.Join(err, gate.WriteJSON(*summaryPath, sum))
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

func soakMain(seed int64, events, relays, n, k, size int, timeout time.Duration, verbose bool, stdout io.Writer, sum *runSummary) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	rng := rand.New(rand.NewSource(seed))
	media := make([]byte, size)
	rng.Read(media)
	schedule := makeSchedule(rng, events)
	sum.Events = len(schedule)

	// The leak check brackets the whole mesh lifetime.
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	topo := mesh.Topology{
		Media:      media,
		Params:     rlnc.Params{BlockCount: n, BlockSize: k},
		Relays:     relays,
		OriginMode: netio.ModeSystematic,
		XorRecode:  true,
		Seed:       seed,
		Registry:   reg,
		Heartbeat:  10 * time.Millisecond,
		Sweep:      25 * time.Millisecond,
		Health:     mesh.HealthConfig{SuspectAfter: 500 * time.Millisecond, DeadAfter: 2 * time.Second},
		UpstreamFaults: &faultnet.Config{
			Seed: seed + 1, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		DownstreamFaults: &faultnet.Config{
			Seed: seed + 2, CorruptEvery: 9000, ResetEvery: 5000, MaxReadChunk: 2048,
		},
		// Every relay (and every replacement server a drain installs) runs
		// the twitchy brownout controller so stall waves engage the ladder in
		// milliseconds, plus a mild pace so drains land mid-transfer rather
		// than after the wave has already finished.
		RelayServerOpts: func(relay int) []netio.ServerOption {
			var onTransition func(from, to netio.BrownoutRung, p float64)
			if verbose {
				onTransition = func(from, to netio.BrownoutRung, p float64) {
					fmt.Fprintf(stdout, "  brownout relay-%d: %s -> %s (pressure %.2f)\n", relay, from, to, p)
				}
			}
			return gate.TwitchyRelay(onTransition)
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
		m: m, rng: rng, stdout: stdout, verbose: verbose,
		maxKills: relays - 2,
	}
	if err := s.m.WaitWarm(ctx); err != nil {
		return err
	}

	start := time.Now()
	for i, ev := range schedule {
		if verbose {
			fmt.Fprintf(stdout, "event %d/%d: %s\n", i+1, len(schedule), ev)
		}
		if err := s.step(ctx, ev); err != nil {
			return fmt.Errorf("event %d (%s, seed %d): %w", i+1, ev, seed, err)
		}
	}
	elapsed := time.Since(start)
	sum.ElapsedS = elapsed.Seconds()
	sum.LeavesDone, sum.Drains, sum.Kills = s.leavesDone, s.drains, s.kills
	sum.Stalls, sum.Redirects, sum.PeakRung = s.stalls, s.redirects, s.peakRung
	sum.Invariants["payloads_identical"] = true // every wave byte-verified in step

	if err := s.checkInvariants(ctx, reg, sum); err != nil {
		return fmt.Errorf("invariant (seed %d): %w", seed, err)
	}

	// Teardown, then the goroutine count must settle back to baseline. The
	// sink is detached first so registry closures don't pin the mesh.
	m.Close()
	obs.SetSink(nil)
	if err := waitGoroutines(ctx, baseGoroutines+3, 10*time.Second); err != nil {
		sum.Invariants["no_goroutine_leak"] = false
		return fmt.Errorf("leak (seed %d): %w", seed, err)
	}
	sum.Invariants["no_goroutine_leak"] = true

	fmt.Fprintf(stdout,
		"soak ok (seed %d): %d events in %v — %d leaves byte-identical, %d drains, %d kills, %d stall waves, %d redirects honored, brownout peak rung %d\n",
		seed, len(schedule), elapsed.Round(time.Millisecond), s.leavesDone, s.drains, s.kills, s.stalls, s.redirects, s.peakRung)
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
	wave, err := s.addLeaves(ctx, count)
	if err != nil {
		return err
	}
	if drainID != "" {
		if err := s.awaitMotion(ctx, wave, "draining "+drainID); err != nil {
			return err
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
	return s.finishWave(ctx, wave)
}

// killWave kills relay id mid-wave; remediation must reroute its leaves and
// the wave must still finish byte-identical.
func (s *soak) killWave(ctx context.Context, id string) error {
	wave, err := s.addLeaves(ctx, 2)
	if err != nil {
		return err
	}
	if err := s.awaitMotion(ctx, wave, "killing "+id); err != nil {
		return err
	}
	if err := s.m.KillRelay(id); err != nil {
		return err
	}
	if s.verbose {
		fmt.Fprintf(s.stdout, "  killed %s\n", id)
	}
	return s.finishWave(ctx, wave)
}

func (s *soak) addLeaves(ctx context.Context, count int) ([]*mesh.Leaf, error) {
	wave := make([]*mesh.Leaf, 0, count)
	for i := 0; i < count; i++ {
		leaf, err := s.m.AddLeaf(ctx)
		if err != nil {
			return nil, err
		}
		wave = append(wave, leaf)
	}
	return wave, nil
}

// awaitMotion waits until every leaf of wave has received a record, so the
// disruption that follows lands mid-transfer, not before it.
func (s *soak) awaitMotion(ctx context.Context, wave []*mesh.Leaf, before string) error {
	err := gate.Poll(ctx, 30*time.Second, time.Millisecond, func() bool {
		for _, leaf := range wave {
			if leaf.Records() == 0 {
				return false
			}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("wave never started moving before %s: %w", before, err)
	}
	return nil
}

// finishWave waits for wave, byte-verifies every leaf, and tallies it.
func (s *soak) finishWave(ctx context.Context, wave []*mesh.Leaf) error {
	if err := s.m.WaitLeaves(ctx, wave...); err != nil {
		return err
	}
	if err := s.m.VerifyLeaves(wave...); err != nil {
		return err
	}
	for _, leaf := range wave {
		s.redirects += leaf.FetchStats().AdmissionRedirected
	}
	s.leavesDone += len(wave)
	return nil
}

// stallWave aims slow clients at one active relay until its brownout ladder
// climbs at least one rung, then releases them and waits for the ladder to
// step all the way back down (gate.StallWave).
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
	st, err := gate.StallWave(ctx, srv, target.Addr(), 100*time.Millisecond)
	s.peakRung = max(s.peakRung, int(st.Peak))
	if err != nil {
		return fmt.Errorf("stall %s: %w", id, err)
	}
	if s.verbose {
		if st.Busy {
			fmt.Fprintf(s.stdout, "  stall dial on %s answered BUSY: ladder already engaged\n", id)
		}
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
	var unbalanced error
	err := gate.Poll(ctx, 15*time.Second, 5*time.Millisecond, func() bool {
		unbalanced = nil
		for _, r := range s.m.Relays() {
			unbalanced = errors.Join(unbalanced, gate.Ledger(r.ID(), r.Ledger()))
		}
		return unbalanced == nil
	})
	sum.Invariants["ledgers_balanced"] = err == nil
	if err != nil {
		return fmt.Errorf("ledgers never balanced: %w", errors.Join(unbalanced, err))
	}
	return nil
}

// waitGoroutines polls until the live goroutine count settles at or below
// limit, or the wait passes.
func waitGoroutines(ctx context.Context, limit int, wait time.Duration) error {
	err := gate.Poll(ctx, wait, 20*time.Millisecond, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= limit
	})
	if err != nil {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return fmt.Errorf("%d goroutines still live (limit %d): %w\n%s", runtime.NumGoroutine(), limit, err, buf)
	}
	return nil
}
