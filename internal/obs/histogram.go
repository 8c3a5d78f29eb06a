package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log-scale (powers of two) duration buckets.
// Bucket i (i < histBuckets) holds observations v with
//
//	upperBound(i-1) < v ≤ upperBound(i),   upperBound(i) = 2^(histMinPow+i) ns
//
// and bucket 0 additionally absorbs everything ≤ 2^histMinPow ns. The last
// bucket (index histBuckets) is the +Inf overflow. The span covers 256 ns to
// ~2.3 minutes before overflowing — sub-microsecond kernel dispatches through
// multi-second reconnect backoffs — with a worst-case quantile error of one
// octave (the reported quantile is the bucket's upper bound, at most 2× the
// true sample quantile and never below it).
const (
	histMinPow  = 8  // first upper bound: 2^8 ns = 256 ns
	histBuckets = 29 // finite buckets: 2^8 .. 2^36 ns (~68.7 s)
)

// bucketIndex returns the bucket for a duration of ns nanoseconds.
func bucketIndex(ns int64) int {
	if ns <= 1<<histMinPow {
		return 0
	}
	// Smallest i with ns <= 2^(histMinPow+i): for 2^(m-1) < ns <= 2^m the
	// high bit of ns-1 is at position m-1, so Len64(ns-1) == m.
	i := bits.Len64(uint64(ns-1)) - histMinPow
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

// bucketBound returns upperBound(i) in nanoseconds; the overflow bucket has
// no finite bound and reports -1.
func bucketBound(i int) int64 {
	if i >= histBuckets {
		return -1
	}
	return 1 << (histMinPow + i)
}

// Histogram is a lock-free fixed-bucket log-scale latency histogram. The
// zero value is ready to use. Observe is a handful of atomic adds plus one
// CAS loop for the max; concurrent Observe/View are safe, and a View taken
// mid-observation can be off by the observations in flight (counts, sum, and
// max are each monotonic but not mutually atomic).
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64

	// Exemplar capture (off unless EnableExemplars was called): exQ holds
	// math.Float64bits of the quantile threshold, exThresh the cached bucket
	// index of that quantile (recomputed every exemplarRecompute traced
	// observations), ex the latest outlier. All hot-path reads are single
	// atomic loads so plain Observe stays untouched.
	exQ      atomic.Uint64
	exThresh atomic.Int32
	exSeen   atomic.Int64
	ex       atomic.Pointer[Exemplar]
}

// Exemplar links one outlier observation to the trace and span that
// produced it, so a histogram's p99 tail can be attributed to a concrete
// causal path in a flight-recorder dump. IDs are plain uint64s.
type Exemplar struct {
	TraceID uint64
	SpanID  uint64
	Value   time.Duration
	When    time.Time
}

// exemplarRecompute is how many traced observations pass between threshold
// bucket refreshes. The threshold starts at bucket 0, so the first traced
// observation is always captured; it then tightens toward the configured
// quantile as counts accumulate.
const exemplarRecompute = 64

// EnableExemplars turns on exemplar capture for observations at or above
// the q-quantile (clamped to [0, 1]). Only ObserveTraced observations with
// a nonzero trace ID are candidates.
func (h *Histogram) EnableExemplars(q float64) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.exQ.Store(math.Float64bits(q) | 1) // |1 so q=0 still reads as enabled
}

// Exemplar returns the latest captured outlier, if any.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	e := h.ex.Load()
	if e == nil {
		return Exemplar{}, false
	}
	return *e, true
}

// ObserveTraced records one duration exactly like Observe and, when
// exemplar capture is enabled and the observation lands at or above the
// cached threshold bucket, publishes it as the histogram's exemplar.
func (h *Histogram) ObserveTraced(d time.Duration, traceID, spanID uint64) {
	h.Observe(d)
	qb := h.exQ.Load()
	if qb == 0 || traceID == 0 {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	if int32(bucketIndex(ns)) >= h.exThresh.Load() {
		h.ex.Store(&Exemplar{TraceID: traceID, SpanID: spanID, Value: d, When: time.Now()})
	}
	if h.exSeen.Add(1)%exemplarRecompute == 0 {
		h.refreshExemplarThreshold(math.Float64frombits(qb &^ 1))
	}
}

// refreshExemplarThreshold recomputes the bucket holding the q-quantile
// from the live counts and caches it for the capture fast path.
func (h *Histogram) refreshExemplarThreshold(q float64) {
	var total int64
	var buckets [histBuckets + 1]int64
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		total += buckets[i]
	}
	if total == 0 {
		return
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			h.exThresh.Store(int32(i))
			return
		}
	}
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Merge adds every observation of o into h. The result is equivalent (bucket
// by bucket, and in count/sum/max) to h having observed both streams.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sumNs.Add(o.sumNs.Load())
	om := o.maxNs.Load()
	for {
		cur := h.maxNs.Load()
		if om <= cur || h.maxNs.CompareAndSwap(cur, om) {
			return
		}
	}
}

// HistogramView is a point-in-time copy of a Histogram with its headline
// quantiles extracted.
type HistogramView struct {
	Count int64
	Sum   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	// Buckets[i] is the observation count of bucket i (not cumulative);
	// BucketBounds[i] is its upper bound, with the final entry the +Inf
	// overflow reported as -1.
	Buckets      [histBuckets + 1]int64
	BucketBounds [histBuckets + 1]time.Duration
}

// View copies the histogram and extracts p50/p95/p99/max.
func (h *Histogram) View() HistogramView {
	var v HistogramView
	for i := range h.counts {
		v.Buckets[i] = h.counts[i].Load()
		v.BucketBounds[i] = time.Duration(bucketBound(i))
	}
	v.Count = h.count.Load()
	v.Sum = time.Duration(h.sumNs.Load())
	v.Max = time.Duration(h.maxNs.Load())
	v.P50 = v.quantile(0.50)
	v.P95 = v.quantile(0.95)
	v.P99 = v.quantile(0.99)
	return v
}

// Quantile returns the q-quantile (q ∈ [0, 1]) of the view's observations:
// the upper bound of the bucket holding the ⌈q·count⌉-th smallest
// observation, which is ≥ the true sample quantile and < 2× it. The overflow
// bucket reports the observed max. Zero observations report zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	v := h.View()
	return v.quantile(q)
}

// Quantile returns the q-quantile of the view's observations under the same
// bucket-upper-bound semantics as Histogram.Quantile. Exposed on the view so
// windowed measurements (a Sub of two snapshots) can extract quantiles from
// the delta.
func (v *HistogramView) Quantile(q float64) time.Duration {
	return v.quantile(q)
}

// Sub returns the view of the observations recorded between prev and v, v
// and prev being two snapshots of the same histogram with prev taken first:
// bucket-wise and count/sum differences, quantiles recomputed from the
// differenced buckets. Max cannot be windowed from snapshots and reports the
// later view's running max. Mid-observation skew (count ahead of bucket
// adds) can leave individual deltas off by the observations in flight;
// negative differences clamp to zero.
func (v HistogramView) Sub(prev HistogramView) HistogramView {
	var d HistogramView
	d.BucketBounds = v.BucketBounds
	for i := range v.Buckets {
		if n := v.Buckets[i] - prev.Buckets[i]; n > 0 {
			d.Buckets[i] = n
		}
	}
	if d.Count = v.Count - prev.Count; d.Count < 0 {
		d.Count = 0
	}
	if d.Sum = v.Sum - prev.Sum; d.Sum < 0 {
		d.Sum = 0
	}
	d.Max = v.Max
	d.P50 = d.quantile(0.50)
	d.P95 = d.quantile(0.95)
	d.P99 = d.quantile(0.99)
	return d
}

func (v *HistogramView) quantile(q float64) time.Duration {
	// Quantiles come from the bucket totals, not v.Count: a concurrent View
	// can catch count ahead of the bucket adds, and the rank must stay
	// consistent with the buckets actually copied.
	var total int64
	for _, n := range v.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, n := range v.Buckets {
		cum += n
		if cum >= rank {
			if i >= histBuckets {
				return v.Max
			}
			return time.Duration(bucketBound(i))
		}
	}
	return v.Max
}
