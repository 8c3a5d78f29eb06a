// Package obs is the repository's unified observability core: a
// dependency-free, lock-free metrics layer shared by every serving surface.
// It has three pieces:
//
//   - A Registry of named metrics — atomic Counters, Gauges, and fixed-bucket
//     log-scale latency Histograms with p50/p95/p99/max extraction — that the
//     session server, the resilient fetcher, the chaos link, and the modeled
//     stream server all register into, so one scrape shows the whole system
//     in one vocabulary.
//
//   - A stage-timing span API (StageOf / TracedStage, Start / StartTraced):
//     one span per stage operation, timed once, feeding both the stage
//     histogram and — when the span carries a trace context and the
//     obs/trace flight recorder is on — one span event in the flight ring.
//     The disabled path is free: with no sink registry and no recorder
//     installed, starting a span reads one atomic pointer (two when it
//     carries a trace context), touches no clock, and allocates nothing, so
//     the hot codec paths stay instrumented permanently. The paper's
//     methodology is per-stage measurement (every kernel rung in
//     Table-based-0…5 is a number); spans make the production pipeline
//     report the same distributions continuously instead of only under a
//     benchmark.
//
//   - An exposition layer: Prometheus text format (WriteText), a JSON
//     snapshot (SnapshotJSON), an http.Handler wiring /metrics,
//     /metrics.json and /debug/pprof/*, and a periodic structured progress
//     logger (LogEvery).
//
// Metric values are standalone and zero-value usable; registration attaches
// a name for exposition but never changes how increments behave. That keeps
// existing typed views (netio.CounterView, faultnet.CounterView, FetchStats)
// as thin reads over the same storage the registry exposes.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"extremenc/internal/obs/trace"
)

// sink is the process-global registry that stage spans record into. Nil (the
// default) leaves untraced spans inert: Start returns a Span that reads no
// clock.
var sink atomic.Pointer[Registry]

// stages is the process-global stage table, name → *Stage. Stages exist
// independently of any sink so hot paths can hold a *Stage in a package-level
// var; installing a sink resolves each stage to a histogram in it.
var stages sync.Map

// SetSink installs reg as the process-global span sink, resolving every
// known stage to a histogram in reg (created on demand). A nil reg turns the
// histograms off again. Safe for concurrent use with running spans: spans already
// started keep recording into the histogram they resolved at start.
func SetSink(reg *Registry) {
	sink.Store(reg)
	stages.Range(func(_, v any) bool {
		v.(*Stage).resolve(reg)
		return true
	})
}

// Stage is a named timing stage. A span of it is timed once and feeds two
// consumers: the stage histogram in the installed sink, and — when the span
// carries a trace context and a flight recorder is enabled — one span event
// in the obs/trace ring. Hot paths resolve a stage once into a package-level
// var and call Start per operation; with no sink and no recorder installed
// the per-call cost is one or two atomic pointer loads and no clock read.
type Stage struct {
	name string // histogram name; "" for a ring-only stage
	ring string // stage name on the flight ring
	h    atomic.Pointer[Histogram]
}

// StageOf returns the process-global stage for name, creating it if needed.
// Its histogram and its flight-ring stage are both called name. If a sink is
// already installed, the new stage is resolved into it immediately.
func StageOf(name string) *Stage { return TracedStage(name, name) }

// TracedStage returns the process-global stage whose histogram is hist and
// whose traced spans appear on the flight ring as ring. An empty hist
// declares a ring-only stage: its spans never touch a histogram and it is
// not resolved into any sink. A histogram name declared twice with
// different ring names is a programming error and panics.
func TracedStage(hist, ring string) *Stage {
	if hist == "" {
		return &Stage{ring: ring}
	}
	v, ok := stages.Load(hist)
	if !ok {
		s := &Stage{name: hist, ring: ring}
		if v, ok = stages.LoadOrStore(hist, s); !ok {
			s.resolve(sink.Load())
		}
	}
	s := v.(*Stage)
	if s.ring != ring {
		panic("obs: stage " + hist + " declared with ring names " + s.ring + " and " + ring)
	}
	return s
}

// resolve points the stage at its histogram in reg (nil reg detaches it).
func (s *Stage) resolve(reg *Registry) {
	if reg == nil {
		s.h.Store(nil)
		return
	}
	s.h.Store(reg.Histogram(s.name, "span latency for stage "+s.name))
}

// Trace is a span's trace context: the emitting node, the transfer's trace
// ID, the parent span and the segment (-1 when not applicable). The zero
// value means untraced.
type Trace struct {
	Node   string
	ID     trace.TraceID
	Parent trace.SpanID
	Seg    int32
}

// Start begins an untraced span of the stage. With no sink installed it
// returns an inert Span without touching the clock; End on an inert Span is
// a no-op. Both paths are allocation-free:
//
//	defer stage.Start().End()
func (s *Stage) Start() Span { return s.StartTraced(Trace{}) }

// StartTraced begins a span of the stage under trace context tc. The span is
// traced when tc names a trace and a flight recorder is enabled: it then
// takes a span ID at once, so it can parent children and be stamped into
// record framing before End. With no sink installed and the span untraced
// it returns an inert Span without touching the clock.
func (s *Stage) StartTraced(tc Trace) Span {
	h := s.h.Load()
	var r *trace.Recorder
	if tc.ID != 0 {
		r = trace.Active()
	}
	if h == nil && r == nil {
		return Span{}
	}
	sp := Span{s: s, h: h}
	if r != nil {
		sp.r, sp.tc, sp.id = r, tc, r.NewSpanID()
	}
	sp.t0 = time.Now()
	return sp
}

// Span is one in-flight stage timing. The zero value is inert.
type Span struct {
	s  *Stage
	h  *Histogram      // nil: no sink when the span started
	r  *trace.Recorder // nil: untraced
	tc Trace           // zero unless traced
	id trace.SpanID
	t0 time.Time
}

// ID returns the span's ID on the flight ring, or 0 for an untraced span.
func (sp Span) ID() trace.SpanID { return sp.id }

// Active reports whether End will record anything.
func (sp Span) Active() bool { return sp.h != nil || sp.r != nil }

// End reads the clock once and records the span: into the stage histogram
// when a sink was installed at start (exemplar-linked to the span's own ID
// when traced), and as one span event on the flight ring when traced. Inert
// spans do nothing. End may be called at most once per span.
func (sp Span) End() {
	if !sp.Active() {
		return
	}
	now := time.Now()
	d := now.Sub(sp.t0)
	if sp.h != nil {
		sp.h.ObserveTraced(d, uint64(sp.tc.ID), uint64(sp.id))
	}
	if sp.r != nil {
		sp.r.Publish(&trace.Event{
			Kind:   trace.KindSpan,
			TS:     now.UnixNano(),
			Node:   sp.tc.Node,
			Stage:  sp.s.ring,
			Trace:  sp.tc.ID,
			Span:   sp.id,
			Parent: sp.tc.Parent,
			Seg:    sp.tc.Seg,
			Dur:    d,
		})
	}
}
