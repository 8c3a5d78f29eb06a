package netio

import (
	"sync"
	"sync/atomic"
)

// frameRef is one framed record on its way through the fan-out: the pump
// frames a record once, wraps it in a frameRef holding one reference, and
// offers the same buffer to every session in the shard — zero-copy fan-out.
// Each successful enqueue retains the frame; writers (and teardown drains)
// release after the wire write or the shed. When the count hits zero the
// buffer returns to the server's frame pool, so a steady-state server
// recycles its frame storage instead of churning the GC at queue depth ×
// session count.
type frameRef struct {
	buf  []byte
	refs atomic.Int32
	pool *framePool

	// Trace attribution, stamped by a traced pump: the round span that
	// encoded this record (written as the wire prelude) and its segment.
	round uint64
	seg   int32
}

func (f *frameRef) retain() { f.refs.Add(1) }

// release drops one reference, recycling the frame at zero. Releasing below
// zero is a fan-out accounting bug and panics rather than corrupting a
// recycled buffer silently.
func (f *frameRef) release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.pool.recycle(f)
	case n < 0:
		panic("netio: frame released more often than retained")
	}
}

// framePool recycles frame buffers and their frameRef headers. Buffers are a
// single size class: a recycled buffer too small for the next record is
// simply dropped for the GC (systematic sessions mix compact XNC2 records
// with larger dense-tail records, so capacities converge to the largest).
type framePool struct {
	bufs   sync.Pool // *[]byte, len reset, cap preserved
	frames sync.Pool // *frameRef, cleared
}

// allocBuf returns a length-n buffer, reusing a recycled one when its
// capacity suffices. It is the allocator the pumps hand to their record
// sources.
func (p *framePool) allocBuf(n int) []byte {
	if v := p.bufs.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// wrap adopts buf as a new single-reference frame; its storage returns to
// the pool on the last release.
func (p *framePool) wrap(buf []byte) *frameRef {
	var fr *frameRef
	if v := p.frames.Get(); v != nil {
		fr = v.(*frameRef)
	} else {
		fr = &frameRef{}
	}
	fr.buf = buf
	fr.pool = p
	fr.round = 0
	fr.seg = -1
	fr.refs.Store(1)
	return fr
}

func (p *framePool) recycle(f *frameRef) {
	buf := f.buf[:0]
	p.bufs.Put(&buf)
	f.buf = nil
	f.pool = nil
	p.frames.Put(f)
}

// frameQueue is a session's bounded send queue: a mutex-guarded ring of
// frame references with a doorbell for the writer. One lock covers an entire
// batched offer or pop, which is what makes the amortized fan-out rung
// cheap — the per-record channel send of the original pump becomes one
// critical section per session per round.
type frameQueue struct {
	mu       sync.Mutex
	ring     []*frameRef
	head     int // index of the oldest queued frame
	n        int // queued frames
	draining bool

	bell chan struct{} // cap 1: queue went non-empty
}

func newFrameQueue(depth int) *frameQueue {
	return &frameQueue{
		ring: make([]*frameRef, depth),
		bell: make(chan struct{}, 1),
	}
}

// offerBatch enqueues as many of frs as fit, in order, retaining each
// enqueued frame, and returns how many were accepted. A draining queue
// accepts nothing. The caller accounts the remainder as shed.
func (q *frameQueue) offerBatch(frs []*frameRef) int {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return 0
	}
	k := min(len(q.ring)-q.n, len(frs))
	for i := 0; i < k; i++ {
		frs[i].retain()
		q.ring[(q.head+q.n+i)%len(q.ring)] = frs[i]
	}
	q.n += k
	q.mu.Unlock()
	if k > 0 {
		select {
		case q.bell <- struct{}{}:
		default:
		}
	}
	return k
}

// popBatch moves up to len(dst) frames into dst and returns the count. The
// caller owns the references it receives.
func (q *frameQueue) popBatch(dst []*frameRef) int {
	q.mu.Lock()
	k := min(q.n, len(dst))
	for i := 0; i < k; i++ {
		idx := (q.head + i) % len(q.ring)
		dst[i] = q.ring[idx]
		q.ring[idx] = nil
	}
	q.head = (q.head + k) % len(q.ring)
	q.n -= k
	q.mu.Unlock()
	return k
}

// drain marks the queue closed to offers and returns every still-queued
// frame; the caller sheds and releases them, so offered == sent + shed holds
// exactly at teardown.
func (q *frameQueue) drain() []*frameRef {
	q.mu.Lock()
	q.draining = true
	rest := make([]*frameRef, 0, q.n)
	for i := 0; i < q.n; i++ {
		idx := (q.head + i) % len(q.ring)
		rest = append(rest, q.ring[idx])
		q.ring[idx] = nil
	}
	q.head, q.n = 0, 0
	q.mu.Unlock()
	return rest
}

func (q *frameQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

func (q *frameQueue) cap() int { return len(q.ring) }
