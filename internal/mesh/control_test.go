package mesh

import (
	"errors"
	"testing"
	"time"

	"extremenc/internal/netio"
)

// fakeClock gives the pool a hand-cranked time source so health thresholds
// are tested deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock(p *Pool) *fakeClock {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p.now = c.now
	return c
}

func TestPoolLifecycle(t *testing.T) {
	p := NewPool()
	if err := p.Add("r1", "addr1", nil, 8); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("r1", "addr1", nil, 8); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if s, _ := p.StateOf("r1"); s != StateJoining {
		t.Fatalf("fresh member state %v, want joining", s)
	}
	p.Heartbeat("r1")
	if s, _ := p.StateOf("r1"); s != StateActive {
		t.Fatalf("heartbeated member state %v, want active", s)
	}
	if got := p.InState(StateActive); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("InState(active) = %v", got)
	}
	if addr, ok := p.Addr("r1"); !ok || addr != "addr1" {
		t.Fatalf("Addr = %q, %v", addr, ok)
	}
	if _, ok := p.StateOf("ghost"); ok {
		t.Fatal("unknown member reported present")
	}
}

func TestHealthSweepTransitions(t *testing.T) {
	p := NewPool()
	clock := newFakeClock(p)
	rank := 0
	if err := p.Add("r", "a", func() int { return rank }, 4); err != nil {
		t.Fatal(err)
	}
	h := NewHealth(p, HealthConfig{SuspectAfter: 100 * time.Millisecond, DeadAfter: 300 * time.Millisecond})
	p.Heartbeat("r")

	// Overdue heartbeat: active → suspect, then a late beat restores it.
	clock.advance(150 * time.Millisecond)
	trs := h.Sweep()
	if len(trs) != 1 || trs[0].To != StateSuspect {
		t.Fatalf("sweep transitions = %+v, want one → suspect", trs)
	}
	p.Heartbeat("r")
	if s, _ := p.StateOf("r"); s != StateActive {
		t.Fatalf("late beat left state %v, want active", s)
	}

	// Rank stall: beats keep flowing but rank is stuck below full — the
	// member is quarantined as suspect, never buried.
	rank = 2
	h.Sweep() // record the rank-2 progress point
	for i := 0; i < 10; i++ {
		clock.advance(50 * time.Millisecond)
		p.Heartbeat("r")
		h.Sweep()
	}
	if s, _ := p.StateOf("r"); s != StateSuspect {
		t.Fatalf("rank-stalled member state %v, want suspect", s)
	}
	if p.deaths.Load() != 0 {
		t.Fatal("rank stall counted as a death")
	}

	// Progress resumes: the next beat reactivates, and a warm relay
	// (rank == full) never re-trips the stall detector.
	rank = 4
	p.Heartbeat("r")
	h.Sweep()
	if s, _ := p.StateOf("r"); s != StateActive {
		t.Fatalf("recovered member state %v, want active", s)
	}
	for i := 0; i < 10; i++ {
		clock.advance(50 * time.Millisecond)
		p.Heartbeat("r")
		h.Sweep()
	}
	if s, _ := p.StateOf("r"); s != StateActive {
		t.Fatalf("warm member state %v, want active", s)
	}

	// Beats stop entirely: suspect, then dead, and death is terminal.
	clock.advance(350 * time.Millisecond)
	h.Sweep()
	if s, _ := p.StateOf("r"); s != StateDead {
		t.Fatalf("silent member state %v, want dead", s)
	}
	if p.deaths.Load() != 1 {
		t.Fatalf("deaths = %d, want 1", p.deaths.Load())
	}
	p.Heartbeat("r")
	if s, _ := p.StateOf("r"); s != StateDead {
		t.Fatal("a beat resurrected a dead member")
	}
}

func TestCoordinatorBalancesAndReroutes(t *testing.T) {
	p := NewPool()
	for _, id := range []string{"r1", "r2"} {
		if err := p.Add(id, "addr-"+id, nil, 8); err != nil {
			t.Fatal(err)
		}
		p.Heartbeat(id)
	}
	c := NewCoordinator(p)

	rds := make([]*netio.Redirector, 4)
	byRelay := map[string]int{}
	for i := range rds {
		rds[i] = netio.NewRedirector("")
		id, err := c.Assign(i, rds[i])
		if err != nil {
			t.Fatal(err)
		}
		byRelay[id]++
		if got, _ := p.Addr(id); rds[i].Target() != got {
			t.Fatalf("leaf %d target %q, relay addr %q", i, rds[i].Target(), got)
		}
	}
	if byRelay["r1"] != 2 || byRelay["r2"] != 2 {
		t.Fatalf("assignment not balanced: %v", byRelay)
	}

	// Reroute leaf 0 off its relay: it must land on the other one.
	from, _ := c.RouteOf(0)
	changed, err := c.Reroute(0, from)
	if err != nil || !changed {
		t.Fatalf("reroute: changed=%v err=%v", changed, err)
	}
	to, _ := c.RouteOf(0)
	if to == from {
		t.Fatal("reroute kept the excluded relay")
	}
	// Two target changes so far: the initial assignment and the reroute.
	if rds[0].Redirects() != 2 {
		t.Fatalf("redirects = %d, want 2", rds[0].Redirects())
	}

	// With every alternative excluded the reroute reports ErrNoRelays.
	p.mu.Lock()
	p.members[from].state = StateDead
	p.mu.Unlock()
	if _, err := c.Reroute(0, to); !errors.Is(err, ErrNoRelays) {
		t.Fatalf("reroute with no alternative: %v, want ErrNoRelays", err)
	}
	if _, err := c.Reroute(99, "r1"); err == nil {
		t.Fatal("reroute of unassigned leaf accepted")
	}

	// Released leaves drop out of the load accounting.
	c.Release(0)
	if _, ok := c.RouteOf(0); ok {
		t.Fatal("released leaf still routed")
	}
}

// TestCoordinatorRejoinReaddressesLeaves: a relay restarted at a new port
// takes along every leaf still aimed at its old, closed port, while a leaf
// the drain redirected to a survivor keeps its target.
func TestCoordinatorRejoinReaddressesLeaves(t *testing.T) {
	p := NewPool()
	if err := p.Add("r1", "addr-r1", nil, 8); err != nil {
		t.Fatal(err)
	}
	p.Heartbeat("r1")
	c := NewCoordinator(p)
	stale, redirected := netio.NewRedirector(""), netio.NewRedirector("")
	for i, rd := range []*netio.Redirector{stale, redirected} {
		if _, err := c.Assign(i, rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add("r2", "addr-r2", nil, 8); err != nil {
		t.Fatal(err)
	}
	p.Heartbeat("r2")

	if !p.SetDraining("r1") {
		t.Fatal("r1 not eligible to drain")
	}
	redirected.SetTarget("addr-r2") // the drain's REDIRECT decision
	if !c.Rejoin("r1", "addr-r1-new") {
		t.Fatal("r1 could not rejoin")
	}
	if got := stale.Target(); got != "addr-r1-new" {
		t.Fatalf("leaf on the old port now targets %q, want addr-r1-new", got)
	}
	if got := redirected.Target(); got != "addr-r2" {
		t.Fatalf("redirected leaf now targets %q, want addr-r2", got)
	}
	if addr, _ := p.Addr("r1"); addr != "addr-r1-new" {
		t.Fatalf("pool addr %q, want addr-r1-new", addr)
	}
	if c.Rejoin("ghost", "x") {
		t.Fatal("unknown relay rejoined")
	}
}

func TestRemediatorMovesLeavesOffDeadRelay(t *testing.T) {
	p := NewPool()
	clock := newFakeClock(p)
	for _, id := range []string{"r1", "r2"} {
		if err := p.Add(id, "addr-"+id, nil, 8); err != nil {
			t.Fatal(err)
		}
		p.Heartbeat(id)
	}
	c := NewCoordinator(p)
	h := NewHealth(p, HealthConfig{SuspectAfter: 100 * time.Millisecond, DeadAfter: 300 * time.Millisecond})
	rem := NewRemediator(h, c, time.Millisecond)

	rd := netio.NewRedirector("")
	relayID, err := c.Assign(0, rd)
	if err != nil {
		t.Fatal(err)
	}

	// Only the other relay keeps beating; the assigned one goes silent.
	other := "r1"
	if relayID == "r1" {
		other = "r2"
	}
	clock.advance(150 * time.Millisecond)
	p.Heartbeat(other)
	if moved := rem.Step(); moved != 1 {
		t.Fatalf("step moved %d leaves, want 1", moved)
	}
	if got, _ := c.RouteOf(0); got != other {
		t.Fatalf("leaf routed to %q, want %q", got, other)
	}
	if wantAddr, _ := p.Addr(other); rd.Target() != wantAddr {
		t.Fatalf("redirector target %q, want %q", rd.Target(), wantAddr)
	}
	if rem.Remediations() != 1 {
		t.Fatalf("remediations = %d, want 1", rem.Remediations())
	}
	// A healthy steady state moves nothing.
	p.Heartbeat(other)
	if moved := rem.Step(); moved != 0 {
		t.Fatalf("steady-state step moved %d leaves", moved)
	}
}
