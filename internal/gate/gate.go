// Package gate is the kit the end-to-end gates share: the scaffolding that
// boots servers and client fleets on loopback, and one copy of each
// invariant check a gate asserts — the exact offered == sent + shed ledger,
// the brownout stall wave, deadline polling — so that what a passing gate
// means is defined in one place. The gate commands (ncserve, ncload, ncsoak,
// nctrace) and the mesh gate tests call it; the leaf byte-identity check is
// mesh.Mesh.VerifyLeaves and the scrape is obs.Registry.Scrape.
//
// The kit does not import internal/mesh, whose in-package tests use it.
package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

// Serve builds a server for media and serves it on a fresh loopback
// listener. It returns the server, its address, and a stop function that
// shuts the server down and returns once Serve has; stop is idempotent.
func Serve(media []byte, p rlnc.Params, opts ...netio.ServerOption) (srv *netio.Server, addr string, stop func(), err error) {
	srv, err = netio.NewServer(media, p, opts...)
	if err != nil {
		return nil, "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, "", nil, fmt.Errorf("loopback listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, l) //nolint:errcheck — stop ends it; teardown is the point
	}()
	return srv, l.Addr().String(), func() {
		srv.Shutdown()
		cancel()
		l.Close()
		<-done
	}, nil
}

// ErrTimeout reports a Poll whose wait elapsed before its condition held.
var ErrTimeout = errors.New("gate: condition still false at the deadline")

// Poll evaluates cond at once and then after each pause of every, until
// cond holds (nil), wait has elapsed (ErrTimeout), or ctx ends (ctx's
// error). Callers wrap the error with what they waited for and the state
// that explains why it never came.
func Poll(ctx context.Context, wait, every time.Duration, cond func() bool) error {
	deadline := time.Now().Add(wait)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w (waited %v)", ErrTimeout, wait)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("gate: poll abandoned: %w", ctx.Err())
		case <-time.After(every):
		}
	}
}

// Ledger checks the exact traffic ledger: every block a server offered was
// either sent or shed. It holds once every session has ended (see
// netio.CounterView.Consistent). The error names who and all three counts.
func Ledger(who string, v netio.CounterView) error {
	if v.Consistent() {
		return nil
	}
	return fmt.Errorf("%s ledger: offered %d != sent %d + shed %d",
		who, v.BlocksOffered, v.BlocksSent, v.BlocksShed)
}

// ScrapedLedger checks the same ledger as read back from a scraped
// exposition (obs.Registry.Scrape): the series prefix_blocks_offered,
// prefix_blocks_sent and prefix_blocks_shed must all be present and balance.
func ScrapedLedger(vals map[string]float64, prefix string) error {
	var v netio.CounterView
	for _, s := range []struct {
		name string
		dst  *int64
	}{{"offered", &v.BlocksOffered}, {"sent", &v.BlocksSent}, {"shed", &v.BlocksShed}} {
		key := prefix + "_blocks_" + s.name
		f, ok := vals[key]
		if !ok {
			return fmt.Errorf("%s missing from the scraped exposition", key)
		}
		*s.dst = int64(f)
	}
	return Ledger("scraped "+prefix, v)
}

// TwitchyRelay returns the relay server options the stall gates run with: a
// 2 ms pump pace so drains land mid-transfer, encode batches of 2, queues 4
// records deep, a 5 ms retry-after hint, and a brownout controller sampling
// every 10 ms, so a stall wave engages the ladder in milliseconds.
// onTransition, when non-nil, sees every ladder step.
func TwitchyRelay(onTransition func(from, to netio.BrownoutRung, pressure float64)) []netio.ServerOption {
	return []netio.ServerOption{
		netio.WithServePace(2 * time.Millisecond),
		netio.WithEncodeBatch(2),
		netio.WithQueueDepth(4),
		netio.WithRetryAfter(5 * time.Millisecond),
		netio.WithBrownout(netio.BrownoutConfig{
			Interval:     10 * time.Millisecond,
			StepUp:       0.5,
			StepDown:     0.05,
			Hold:         2,
			OnTransition: onTransition,
		}),
	}
}

// Stall is what a StallWave saw of the brownout ladder.
type Stall struct {
	Peak netio.BrownoutRung // highest rung observed
	Busy bool               // a stall dial was answered BUSY
}

// StallWave pins srv, served at addr, with up to four raw sessions that
// read eight records each and then stop reading, so its queues back up and
// the brownout ladder climbs. Once the ladder leaves off it holds the
// pressure for hold, releases the sessions, and waits for the ladder to step
// back to off; each wait is bounded at 20 s. A dial answered BUSY is the
// reject rung speaking — the ladder is already engaged (a previous wave can
// leave it there) — so the wave stops dialing and goes straight to hold and
// release.
func StallWave(ctx context.Context, srv *netio.Server, addr string, hold time.Duration) (Stall, error) {
	var st Stall
	var stallers []*netio.RawClient
	defer func() {
		for _, c := range stallers {
			c.Close()
		}
	}()
	for i := 0; i < 4 && !st.Busy; i++ {
		conn, err := netio.DialAddr(addr)(ctx)
		if err != nil {
			return st, err
		}
		raw, err := netio.NewRawClient(conn)
		if errors.Is(err, netio.ErrAdmissionBusy) {
			st.Busy, st.Peak = true, netio.BrownoutReject
			break
		}
		if err != nil {
			return st, err
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
	observe := func() { st.Peak = max(st.Peak, srv.Rung()) }
	if !st.Busy {
		err := Poll(ctx, 20*time.Second, time.Millisecond, func() bool {
			observe()
			return st.Peak > netio.BrownoutOff
		})
		if err != nil {
			return st, fmt.Errorf("brownout never engaged under stall (snapshot %+v): %w", srv.Snapshot().CounterView, err)
		}
	}
	// Hold the pressure briefly — the ladder may climb further — then release.
	time.Sleep(hold)
	observe()
	for _, c := range stallers {
		c.Close()
	}
	stallers = nil
	err := Poll(ctx, 20*time.Second, time.Millisecond, func() bool { return srv.Rung() == netio.BrownoutOff })
	if err != nil {
		return st, fmt.Errorf("brownout never stepped back down after release (rung %s): %w", srv.Rung(), err)
	}
	return st, nil
}

// Fleet is a set of raw sessions reading records from one server.
type Fleet struct {
	mu      sync.Mutex
	clients []*netio.RawClient
	readers sync.WaitGroup
}

// RampFleet dials size raw sessions at addr, chunk at a time. Each chunk's
// handshakes complete before the next chunk dials: that paces the accept
// queue, and later chunks join while earlier sessions are already being
// served, so deep fleets ramp slowly but arrive at a steady state. Every
// session reads records until the fleet is closed, sleeping nap after each
// (0 reads at wire speed). On a dial or handshake error the sessions already
// up are closed and the error is returned.
func RampFleet(addr string, size, chunk int, nap time.Duration) (*Fleet, error) {
	f := &Fleet{}
	for off := 0; off < size; off += chunk {
		n := min(chunk, size-off)
		errc := make(chan error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
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
				f.read(rc, nap)
			}()
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			f.Close()
			return nil, fmt.Errorf("ramp: %w", err)
		}
	}
	return f, nil
}

func (f *Fleet) read(rc *netio.RawClient, nap time.Duration) {
	f.mu.Lock()
	f.clients = append(f.clients, rc)
	f.mu.Unlock()
	f.readers.Add(1)
	go func() {
		defer f.readers.Done()
		for {
			if _, err := rc.Next(); err != nil {
				return
			}
			if nap > 0 {
				time.Sleep(nap)
			}
		}
	}()
}

// Close hangs up every session and returns once their readers have exited.
// It is idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	for _, rc := range f.clients {
		rc.Close()
	}
	f.clients = nil
	f.mu.Unlock()
	f.readers.Wait()
}

// WriteJSON writes v to path as indented JSON ending in a newline — the
// machine-readable run summary a gate leaves for CI to upload.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// DumpFlight writes a flight-recorder dump (trace.DumpJSON) to path for the
// postmortem of a failed gate, and returns the line that reports where it
// went, or why it could not be written.
func DumpFlight(path string, dump []byte) string {
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		return fmt.Sprintf("flight dump: %v", err)
	}
	return "flight dump written to " + path
}
