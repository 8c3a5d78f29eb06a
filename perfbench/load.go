package main

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

// clients is the closed loop's size: each client asks for its next object
// only after the previous fetch verified, as a streaming peer asks for its
// next segment only after the last one decodes.
const clients = 2

// minFetches is the smallest run that puts minBeyond samples past p90.
var minFetches = samplesFor(0.9, minBeyond)

// fetchSample is one fetch: dial to verified payload.
type fetchSample struct {
	elapsed   time.Duration
	err       error
	records   int
	dependent int
	readWait  time.Duration // traced runs only
	dial      time.Duration // traced runs only
}

// phase is one closed-loop measured phase.
type phase struct {
	samples  []fetchSample
	wall     time.Duration
	cpu      time.Duration // process user+sys over the phase
	alloc    uint64        // runtime TotalAlloc delta over the phase
	verified int64         // payload bytes that passed verification
	before   netio.Snapshot
	after    netio.Snapshot
}

// loadOpts adjusts one closed-loop phase.
type loadOpts struct {
	// instrument wraps each leaf connection to time dials and blocked reads
	// and labels fetcher trace spans.
	instrument bool
	// tap, when non-nil, receives every record of client 0's first fetch.
	tap func(*rlnc.CodedBlock)
	// stop, when non-nil, ends the phase early once it returns true.
	stop func() bool
	// min is the fewest fetches the phase runs, past dur if need be.
	min int
}

// runPhase drives the closed loop against r for at least dur and at least
// o.min fetches (giving up on the count at 3·dur), then waits for every
// client to finish its fetch in flight.
func runPhase(r *rig, dur time.Duration, o loadOpts) phase {
	var ph phase
	srv := r.server()
	ph.before = srv.Snapshot()
	cpu0 := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	start := time.Now()
	deadline := start.Add(dur)
	hardStop := start.Add(3 * dur)
	var attempted atomic.Int64
	more := func() bool {
		now := time.Now()
		if o.stop != nil && o.stop() && attempted.Load() > 0 {
			return false
		}
		return now.Before(deadline) || (attempted.Load() < int64(o.min) && now.Before(hardStop))
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; more(); i++ {
				attempted.Add(1)
				var tap func(*rlnc.CodedBlock)
				if c == 0 && i == 0 {
					tap = o.tap
				}
				s := fetchOnce(r, int64(c)<<32|int64(i), o.instrument, tap)
				mu.Lock()
				ph.samples = append(ph.samples, s)
				if s.err == nil {
					ph.verified += int64(len(r.in.media))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	ph.alloc = ms.TotalAlloc - alloc0
	ph.after = srv.Snapshot()
	return ph
}

// fetchOnce runs one whole-object fetch with a fresh Fetcher and verifies it.
func fetchOnce(r *rig, id int64, instrument bool, tap func(*rlnc.CodedBlock)) fetchSample {
	var s fetchSample
	dial := dialTCP(r.addr())
	var wait waitClock
	opts := []netio.FetcherOption{
		netio.WithFetchTimeout(fetchTimeout),
		netio.WithBackoffSeed(r.in.fetchSeed + id),
	}
	if instrument {
		base := dial
		dial = func(ctx context.Context) (net.Conn, error) {
			t0 := time.Now()
			c, err := base(ctx)
			s.dial += time.Since(t0)
			if err != nil {
				return nil, err
			}
			return &timedConn{Conn: c, wait: &wait}, nil
		}
		opts = append(opts, netio.WithFetchTrace("leaf"))
	}
	if tap != nil {
		opts = append(opts, netio.WithRecordTap(tap))
	}
	t0 := time.Now()
	res, err := netio.NewFetcher(dial, opts...).Fetch(context.Background())
	s.err = verify(res, err, r.in.media)
	s.elapsed = time.Since(t0)
	if res != nil {
		s.records, s.dependent = res.Stats.Records, res.Stats.Dependent
	}
	s.readWait = wait.d
	return s
}

// waitClock accumulates time a leaf spent blocked in Read.
type waitClock struct{ d time.Duration }

// timedConn wraps the dial side of a leaf connection only: wrapping server
// connections would hide the net.Buffers writev path behind a plain Write.
type timedConn struct {
	net.Conn
	wait *waitClock
}

func (c *timedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.wait.d += time.Since(t0)
	return n, err
}

// latenciesMS returns the fetch latencies in milliseconds, ascending, with
// failed fetches as +Inf.
func (ph *phase) latenciesMS() []float64 {
	out := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		out[i] = math.Inf(1)
		if s.err == nil {
			out[i] = float64(s.elapsed) / float64(time.Millisecond)
		}
	}
	sort.Float64s(out)
	return out
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// mismatched reports whether any fetch returned wrong bytes.
func (ph *phase) mismatched() bool {
	for _, s := range ph.samples {
		if errors.Is(s.err, errMismatch) {
			return true
		}
	}
	return false
}

// goodputMBps is verified payload MB over the phase's wall time.
func (ph *phase) goodputMBps() float64 {
	return float64(ph.verified) / 1e6 / ph.wall.Seconds()
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far, in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
