package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"extremenc/internal/mesh"
	"extremenc/internal/netio"
)

// rig is one in-process serving topology over loopback TCP: an origin
// server and, for relay workloads, one recoding relay that the leaves fetch
// from.
type rig struct {
	w      workload
	in     inputs
	cancel context.CancelFunc

	origin    *netio.Server
	originLn  net.Listener
	serveDone chan struct{}
	relay     *mesh.Relay

	// warmup is how long the relay took from start to full rank with its
	// upstream released; zero without a relay.
	warmup time.Duration
}

// relayWarmupTimeout bounds how long set-up waits for the relay to reach
// full rank and release its upstream.
const relayWarmupTimeout = 30 * time.Second

// startRig builds the topology. With traced set (and the trace recorder
// enabled by the caller) the origin opens trace spans; a relay inherits the
// trace through its upstream handshake.
func startRig(w workload, in inputs, traced bool) (*rig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{w: w, in: in, cancel: cancel, serveDone: make(chan struct{})}
	opts := []netio.ServerOption{netio.WithServerSeed(in.serverSeed), netio.WithWireMode(w.mode)}
	if traced {
		opts = append(opts, netio.WithServerTrace("origin"))
	}
	srv, err := netio.NewServer(in.media, w.params(), opts...)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("origin: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		srv.Shutdown()
		return nil, fmt.Errorf("origin listen: %w", err)
	}
	r.origin, r.originLn = srv, ln
	go func() {
		defer close(r.serveDone)
		srv.Serve(ctx, ln) //nolint:errcheck // ends with the rig
	}()
	if !w.relay {
		return r, nil
	}

	t0 := time.Now()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	relay, err := mesh.StartRelay(ctx, mesh.RelayConfig{
		ID:       "relay",
		Upstream: dialTCP(ln.Addr().String()),
		Listener: rln,
		Seed:     in.relaySeed,
	})
	if err != nil {
		rln.Close()
		r.close()
		return nil, fmt.Errorf("relay: %w", err)
	}
	r.relay = relay
	if err := r.awaitRelayWarm(); err != nil {
		r.close()
		return nil, err
	}
	r.warmup = time.Since(t0)
	return r, nil
}

// awaitRelayWarm waits until the relay holds full rank for every segment and
// its upstream session to the origin has ended, so the measured phase sees
// only relay recode work.
func (r *rig) awaitRelayWarm() error {
	full := r.w.n * r.w.segments
	deadline := time.Now().Add(relayWarmupTimeout)
	for r.relay.TotalRank() < full || r.origin.Snapshot().Sessions > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("relay warm-up: rank %d of %d after %v", r.relay.TotalRank(), full, relayWarmupTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// server is the server the leaves fetch from.
func (r *rig) server() *netio.Server {
	if r.relay != nil {
		return r.relay.Server()
	}
	return r.origin
}

// addr is where the leaves dial.
func (r *rig) addr() string {
	if r.relay != nil {
		return r.relay.Addr()
	}
	return r.originLn.Addr().String()
}

// close tears the topology down and waits for every goroutine it started.
func (r *rig) close() {
	if r.relay != nil {
		r.relay.Close()
	}
	r.cancel()
	r.origin.Shutdown()
	r.originLn.Close()
	<-r.serveDone
}

func dialTCP(addr string) netio.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// fetchTimeout bounds one fetch; a fetch that runs past it is failed.
const fetchTimeout = 20 * time.Second

// errMismatch marks a fetch whose payload differs from the generated object.
var errMismatch = errors.New("payload differs from the generated object")

// verify checks one fetch outcome: no error, no record rejected on a clean
// loopback link, and the payload byte-identical to the origin object.
func verify(res *netio.FetchResult, err error, media []byte) error {
	if err != nil {
		return err
	}
	if st := res.Stats; st.Corrupt+st.Malformed+st.BadSegment > 0 {
		return fmt.Errorf("rejected records on clean loopback: corrupt %d, malformed %d, bad segment %d",
			st.Corrupt, st.Malformed, st.BadSegment)
	}
	if !bytes.Equal(res.Payload, media) {
		return errMismatch
	}
	return nil
}
