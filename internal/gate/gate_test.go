package gate

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

func serveTest(t *testing.T, opts ...netio.ServerOption) (*netio.Server, string) {
	t.Helper()
	media := make([]byte, 28_000)
	rand.New(rand.NewSource(5)).Read(media)
	srv, addr, stop, err := Serve(media, rlnc.Params{BlockCount: 16, BlockSize: 512}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return srv, addr
}

// TestStallWaveEngagesAndReleases drives the stall wave against a real
// server running the twitchy relay options: the non-reading sessions must
// push the ladder off its floor, and the wave must not return before the
// ladder is back at off. The ladder here steps down only after 300 ms of
// calm (the twitchy 20 ms lets pacing alone bring it back mid-hold), so a
// wave that skipped the release wait would return with the rung still up.
func TestStallWaveEngagesAndReleases(t *testing.T) {
	srv, addr := serveTest(t, append(TwitchyRelay(nil), netio.WithBrownout(netio.BrownoutConfig{
		Interval: 10 * time.Millisecond,
		StepUp:   0.5,
		StepDown: 0.05,
		Hold:     30,
	}))...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := StallWave(ctx, srv, addr, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Busy {
		t.Fatal("a fresh server answered a stall dial BUSY")
	}
	if st.Peak <= netio.BrownoutOff {
		t.Fatalf("peak rung %s, want above off", st.Peak)
	}
	if r := srv.Rung(); r != netio.BrownoutOff {
		t.Fatalf("rung %s after the wave, want off", r)
	}
	if n := srv.Snapshot().BrownoutTransitions; n < 2 {
		t.Fatalf("%d ladder transitions, want at least up and back down", n)
	}
}

// TestStallWaveBusyMeansEngaged: a dial answered BUSY is the reject rung
// speaking, so the wave counts the ladder as engaged at reject instead of
// failing, and stops dialing.
func TestStallWaveBusyMeansEngaged(t *testing.T) {
	srv, addr := serveTest(t, netio.WithMaxSessions(1))
	pin, err := RampFleet(addr, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := Poll(ctx, 10*time.Second, time.Millisecond, func() bool { return srv.Snapshot().Sessions == 1 }); err != nil {
		t.Fatalf("pinned session never joined: %v", err)
	}
	st, err := StallWave(ctx, srv, addr, time.Millisecond)
	if err != nil {
		t.Fatalf("BUSY stall dial failed the wave: %v", err)
	}
	if !st.Busy || st.Peak != netio.BrownoutReject {
		t.Fatalf("stall = %+v, want Busy at peak %s", st, netio.BrownoutReject)
	}
	if busy := srv.Snapshot().AdmissionBusy; busy != 1 {
		t.Fatalf("server wrote %d BUSY decisions, want 1 (the wave must stop dialing)", busy)
	}
}

func TestPoll(t *testing.T) {
	calls := 0
	if err := Poll(context.Background(), time.Second, time.Millisecond, func() bool { calls++; return true }); err != nil || calls != 1 {
		t.Fatalf("Poll on a true condition = %v after %d calls, want nil after 1", err, calls)
	}

	calls = 0
	err := Poll(context.Background(), 20*time.Millisecond, time.Millisecond, func() bool { calls++; return false })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Poll past its wait = %v, want ErrTimeout", err)
	}
	if calls < 2 {
		t.Fatalf("condition evaluated %d times in a 20ms wait at 1ms, want several", calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err = Poll(ctx, time.Hour, time.Millisecond, func() bool { return false })
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrTimeout) {
		t.Fatalf("Poll with a cancelled ctx = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled Poll returned after %v", d)
	}
}

func TestLedger(t *testing.T) {
	if err := Ledger("relay-0", netio.CounterView{BlocksOffered: 9, BlocksSent: 7, BlocksShed: 2}); err != nil {
		t.Fatalf("balanced ledger: %v", err)
	}
	err := Ledger("relay-0", netio.CounterView{BlocksOffered: 10, BlocksSent: 7, BlocksShed: 2})
	if want := "relay-0 ledger: offered 10 != sent 7 + shed 2"; err == nil || err.Error() != want {
		t.Fatalf("unbalanced ledger error = %v, want %q", err, want)
	}

	vals := map[string]float64{"netio_blocks_offered": 10, "netio_blocks_sent": 7, "netio_blocks_shed": 3}
	if err := ScrapedLedger(vals, "netio"); err != nil {
		t.Fatalf("balanced scraped ledger: %v", err)
	}
	vals["netio_blocks_shed"] = 2
	err = ScrapedLedger(vals, "netio")
	if want := "scraped netio ledger: offered 10 != sent 7 + shed 2"; err == nil || err.Error() != want {
		t.Fatalf("unbalanced scraped ledger error = %v, want %q", err, want)
	}
	delete(vals, "netio_blocks_sent")
	err = ScrapedLedger(vals, "netio")
	if want := "netio_blocks_sent missing from the scraped exposition"; err == nil || err.Error() != want {
		t.Fatalf("partial scrape error = %v, want %q", err, want)
	}
}

// TestRampFleet: every session of a ramped fleet joins the server, and
// Close hangs them all up.
func TestRampFleet(t *testing.T) {
	srv, addr := serveTest(t)
	fleet, err := RampFleet(addr, 5, 2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := Poll(ctx, 10*time.Second, time.Millisecond, func() bool { return srv.Snapshot().Sessions == 5 }); err != nil {
		t.Fatalf("fleet of 5 never joined (%d live): %v", srv.Snapshot().Sessions, err)
	}
	fleet.Close()
	fleet.Close()
	if err := Poll(ctx, 10*time.Second, time.Millisecond, func() bool { return srv.Snapshot().Sessions == 0 }); err != nil {
		t.Fatalf("closed fleet left %d sessions live: %v", srv.Snapshot().Sessions, err)
	}
	if _, err := RampFleet("127.0.0.1:1", 1, 1, 0); err == nil || !strings.HasPrefix(err.Error(), "ramp: ") {
		t.Fatalf("ramp against a dead port = %v, want a ramp error", err)
	}
}

func TestWriteJSONAndDumpFlight(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "summary.json")
	if err := WriteJSON(path, map[string]bool{"ok": true}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]bool
	if err := json.Unmarshal(b, &got); err != nil || !got["ok"] || !strings.HasSuffix(string(b), "}\n") {
		t.Fatalf("summary %q (%v), want indented JSON ending in a newline", b, err)
	}

	flight := filepath.Join(dir, "flight.json")
	if msg := DumpFlight(flight, []byte("[]")); msg != "flight dump written to "+flight {
		t.Fatalf("DumpFlight = %q", msg)
	}
	if msg := DumpFlight(filepath.Join(dir, "missing", "flight.json"), nil); !strings.HasPrefix(msg, "flight dump: ") {
		t.Fatalf("DumpFlight into a missing directory = %q, want the write error", msg)
	}
}
