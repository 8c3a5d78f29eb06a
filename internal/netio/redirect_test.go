package netio

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// dribbleServer serves the object over l a few records at a time: each
// accepted session gets the handshake plus recordsPerSession dense records,
// then a hangup — a server no single session can finish against. Session i
// is seeded distinctly so every session pushes fresh combinations.
func dribbleServer(t *testing.T, l net.Listener, obj *rlnc.Object, recordsPerSession int) {
	t.Helper()
	go func() {
		for session := 0; ; session++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			h := sessionHeader{params: obj.Params, segments: len(obj.Segments), length: int64(obj.Length)}
			if err := writeSessionHeader(conn, h); err != nil {
				conn.Close()
				continue
			}
			rng := rand.New(rand.NewSource(int64(session)*7919 + 11))
			encs := make([]*rlnc.Encoder, len(obj.Segments))
			for i, seg := range obj.Segments {
				encs[i] = rlnc.NewEncoder(seg, rng)
			}
			for r := 0; r < recordsPerSession; r++ {
				rec, err := frameRecord(encs[r%len(encs)].NextBlock(), nil)
				if err != nil {
					break
				}
				if _, err := conn.Write(rec); err != nil {
					break
				}
			}
			conn.Close()
		}
	}()
}

// TestRedirectorReroutesMidFetch is the dial-target redirection acceptance
// test: a leaf fetches through a Redirector pointed at a server that dies
// mid-transfer; the control plane (here: the test) re-points the Redirector
// at a healthy server declaring the same session, and the same fetch must
// complete byte-identical with the rank accumulated on the first server
// carried over.
func TestRedirectorReroutesMidFetch(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 3*p.SegmentSize()-5, 41)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}

	// Server A: dribbles 4 records per session, so no session against it can
	// decode 3 segments of 8 blocks each.
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	dribbleServer(t, la, obj, 4)

	// Server B: a full pump server over the same object.
	srvB, err := NewServer(media, p, WithServerSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	go srvB.Serve(serveCtx, lb)
	defer srvB.Shutdown()

	rd := NewRedirector(la.Addr().String())
	var tapped atomic.Int64
	rerouted := make(chan struct{})
	var rerouteOnce atomic.Bool
	f := NewFetcher(rd.Dial,
		WithBackoff(time.Millisecond, 20*time.Millisecond),
		WithBackoffSeed(3),
		WithRecordTap(func(b *rlnc.CodedBlock) {
			if b.Validate(p) != nil {
				t.Error("tap saw a block that does not validate")
			}
			// Once the leaf has real progress against A, kill A and hand the
			// fetcher a fresh dial target — the remediation path in miniature.
			if tapped.Add(1) == 6 && rerouteOnce.CompareAndSwap(false, true) {
				la.Close()
				rd.SetTarget(lb.Addr().String())
				close(rerouted)
			}
		}),
	)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("rerouted fetch failed: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical after reroute")
	}
	select {
	case <-rerouted:
	default:
		t.Fatal("fetch completed without ever being rerouted")
	}
	if rd.Redirects() != 1 {
		t.Fatalf("redirects = %d, want 1", rd.Redirects())
	}
	if res.Stats.Reconnects == 0 {
		t.Fatal("reroute happened without a reconnect")
	}
	if res.Stats.ResumedRank == 0 {
		t.Fatal("reroute carried no rank: leaf restarted from scratch")
	}
	if int64(res.Stats.Records) != tapped.Load() {
		t.Fatalf("tap saw %d records, fetch absorbed %d", tapped.Load(), res.Stats.Records)
	}
}

// TestRedirectorConcurrentSetAndDial hammers Dial from many goroutines while
// the target flips between two live listeners, pinning the repaired tear:
// every dial lands on a target that was current at some instant, the dial
// count matches the attempts exactly, and the redirect count matches the
// SetTarget calls that reported a change. Run under -race this also proves
// the re-point path never races an in-flight dial's snapshot.
func TestRedirectorConcurrentSetAndDial(t *testing.T) {
	accepting := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				conn.Close()
			}
		}()
		return l
	}
	la, lb := accepting(), accepting()
	defer la.Close()
	defer lb.Close()
	addrs := []string{la.Addr().String(), lb.Addr().String()}

	rd := NewRedirector(addrs[0])
	const (
		dialers       = 8
		dialsPer      = 25
		repoints      = 200
		totalAttempts = dialers * dialsPer
	)
	var (
		wg      sync.WaitGroup
		changes atomic.Int64
	)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < dialsPer; j++ {
				conn, err := rd.Dial(context.Background())
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				conn.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < repoints; j++ {
			if rd.SetTarget(addrs[j%2]) {
				changes.Add(1)
			}
		}
	}()
	wg.Wait()

	if got := rd.Dials(); got != totalAttempts {
		t.Fatalf("dials = %d, want %d", got, totalAttempts)
	}
	if got := rd.Redirects(); got != changes.Load() {
		t.Fatalf("redirects = %d, but %d SetTarget calls reported a change", got, changes.Load())
	}
	// The flipper starts by re-pointing at the already-current addrs[0]: the
	// very first call must be a no-op, so changes < repoints strictly.
	if c := changes.Load(); c == 0 || c >= repoints {
		t.Fatalf("changed re-points = %d, want within (0, %d)", c, repoints)
	}
}

// TestSessionHookSeesDeclaredInfo: the session hook must fire on every
// successful handshake with exactly the SessionInfo the server declares.
func TestSessionHookSeesDeclaredInfo(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-9, 17)
	srv, err := NewServer(media, p, WithWireMode(ModeSystematic), WithServerSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	go srv.Serve(context.Background(), l)
	defer func() {
		srv.Shutdown()
		l.Close()
	}()

	var infos []SessionInfo
	f := NewFetcher(
		func(ctx context.Context) (net.Conn, error) { return l.Dial(), nil },
		WithSessionHook(func(si SessionInfo) { infos = append(infos, si) }),
		WithMaxAttempts(1),
	)
	res, err := f.Fetch(context.Background())
	if err != nil {
		t.Fatalf("fetch: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload differs")
	}
	if len(infos) != 1 {
		t.Fatalf("session hook fired %d times, want 1", len(infos))
	}
	if infos[0] != srv.Info() {
		t.Fatalf("hook info %+v != server info %+v", infos[0], srv.Info())
	}
	if err := infos[0].Validate(); err != nil {
		t.Fatalf("hooked info does not validate: %v", err)
	}
}

// poolSource is a minimal out-of-package-style RecordSource: a fixed
// pre-encoded pool of dense records per segment, handed out cyclically.
type poolSource struct {
	info SessionInfo
	recs [][][]byte // [segment][record]
	next []int
}

func newPoolSource(t *testing.T, obj *rlnc.Object, perSeg int) *poolSource {
	t.Helper()
	src := &poolSource{
		info: SessionInfo{Params: obj.Params, Segments: len(obj.Segments), Length: int64(obj.Length)},
		recs: make([][][]byte, len(obj.Segments)),
		next: make([]int, len(obj.Segments)),
	}
	rng := rand.New(rand.NewSource(71))
	for i, seg := range obj.Segments {
		enc := rlnc.NewEncoder(seg, rng)
		for r := 0; r < perSeg; r++ {
			rec, err := FrameRecord(enc.NextBlock(), src.info.Mode)
			if err != nil {
				t.Fatal(err)
			}
			src.recs[i] = append(src.recs[i], rec)
		}
	}
	return src
}

func (s *poolSource) Info() SessionInfo { return s.info }

func (s *poolSource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	out := make([][]byte, 0, batch)
	for i := 0; i < batch; i++ {
		rec := s.recs[seg][s.next[seg]%len(s.recs[seg])]
		// The server recycles every record it is handed: give it a copy.
		out = append(out, append(alloc(len(rec))[:0], rec...))
		s.next[seg]++
	}
	return out
}

// TestSourceServer: a server over an arbitrary RecordSource must drive a
// stock fetcher to a byte-identical object through the same pump machinery.
func TestSourceServer(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize()-3, 23)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewSourceServer(newPoolSource(t, obj, 2*p.BlockCount))
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	go srv.Serve(context.Background(), l)
	defer func() {
		srv.Shutdown()
		l.Close()
	}()

	payload, stats, err := Fetch(context.Background(), l.Dial())
	if err != nil {
		t.Fatalf("fetch from source server: %v (stats %+v)", err, stats)
	}
	if !bytes.Equal(payload, media) {
		t.Fatal("payload differs through the source server")
	}
}
