package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"extremenc/internal/obs/trace"
)

// TestSpanDisabledIsFree pins the disabled-path contract: with no sink and
// no flight recorder installed, starting and ending a span — untraced or
// carrying a trace context — performs zero allocations, reads no clock and
// records nothing anywhere.
func TestSpanDisabledIsFree(t *testing.T) {
	SetSink(nil)
	trace.Disable()
	st := TracedStage("test.disabled_stage", "disabled")
	tc := Trace{Node: "n", ID: 7, Parent: 9, Seg: 3}
	for name, start := range map[string]func() Span{
		"untraced": st.Start,
		"traced":   func() Span { return st.StartTraced(tc) },
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			sp := start()
			sp.End()
		})
		if allocs != 0 {
			t.Fatalf("disabled %s span path allocates %v per op, want 0", name, allocs)
		}
		if sp := start(); sp != (Span{}) {
			t.Fatalf("disabled %s span is not the inert zero Span: %+v", name, sp)
		}
	}
}

// TestSpanEnabledRecords checks that installing a sink makes spans record
// into the registry, and removing it stops them again.
func TestSpanEnabledRecords(t *testing.T) {
	reg := NewRegistry()
	SetSink(reg)
	defer SetSink(nil)

	st := StageOf("test.enabled_stage")
	sp := st.Start()
	if !sp.Active() {
		t.Fatal("span inert with a sink installed")
	}
	time.Sleep(time.Millisecond)
	sp.End()
	st.Start().End()

	v, ok := reg.HistogramView("test.enabled_stage")
	if !ok {
		t.Fatal("stage histogram not in sink registry")
	}
	if v.Count != 2 {
		t.Fatalf("stage recorded %d spans, want 2", v.Count)
	}
	if v.Max < time.Millisecond {
		t.Fatalf("stage max %v, want ≥ 1ms", v.Max)
	}

	SetSink(nil)
	st.Start().End()
	if v, _ := reg.HistogramView("test.enabled_stage"); v.Count != 2 {
		t.Fatalf("span recorded after sink removal: count %d", v.Count)
	}
}

// TestStageOfIdempotent checks the global stage table and late binding: a
// stage created before the sink resolves when the sink arrives.
func TestStageOfIdempotent(t *testing.T) {
	SetSink(nil)
	a := StageOf("test.idem")
	if b := StageOf("test.idem"); a != b {
		t.Fatal("StageOf returned distinct stages for one name")
	}
	if b := TracedStage("test.idem", "test.idem"); a != b {
		t.Fatal("TracedStage returned a distinct stage for StageOf's name")
	}
	reg := NewRegistry()
	SetSink(reg)
	defer SetSink(nil)
	a.Start().End()
	if v, ok := reg.HistogramView("test.idem"); !ok || v.Count != 1 {
		t.Fatalf("pre-existing stage did not bind to new sink (ok=%v count=%d)", ok, v.Count)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a stage under another ring name did not panic")
		}
	}()
	TracedStage("test.idem", "other")
}

// switches installs a sink and/or a flight recorder for one test and
// removes both afterwards.
func switches(t *testing.T, sinkOn, ringOn bool) (*Registry, *trace.Recorder) {
	t.Helper()
	var reg *Registry
	var rec *trace.Recorder
	if sinkOn {
		reg = NewRegistry()
	}
	SetSink(reg)
	if ringOn {
		rec = trace.Enable(64)
	} else {
		trace.Disable()
	}
	t.Cleanup(func() {
		SetSink(nil)
		trace.Disable()
	})
	return reg, rec
}

// TestTracedSpanFeedsBoth pins the one-span contract: with the sink and the
// recorder on, one traced span yields exactly one histogram observation and
// exactly one ring event, the event carries the span's own ID, parent and
// segment under the stage's ring name, and the histogram exemplar resolves
// to that span.
func TestTracedSpanFeedsBoth(t *testing.T) {
	reg, rec := switches(t, true, true)
	st := TracedStage("test.both", "both")
	reg.Histogram("test.both", "").EnableExemplars(0)

	tr := trace.NewTrace()
	sp := st.StartTraced(Trace{Node: "origin", ID: tr, Parent: 41, Seg: 5})
	if sp.ID() == 0 {
		t.Fatal("traced span has no ID before End")
	}
	sp.End()

	v, _ := reg.HistogramView("test.both")
	if v.Count != 1 {
		t.Fatalf("histogram count %d, want 1", v.Count)
	}
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("ring holds %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != trace.KindSpan || e.Stage != "both" || e.Node != "origin" ||
		e.Trace != tr || e.Span != sp.ID() || e.Parent != 41 || e.Seg != 5 {
		t.Fatalf("span event %+v, want span %d of trace %d under parent 41, seg 5", e, sp.ID(), tr)
	}
	if time.Duration(v.Sum) != e.Dur {
		t.Fatalf("histogram saw %v, ring event %v: span timed twice", time.Duration(v.Sum), e.Dur)
	}
	ex, ok := reg.Histogram("test.both", "").Exemplar()
	if !ok || ex.TraceID != uint64(tr) || ex.SpanID != uint64(sp.ID()) {
		t.Fatalf("exemplar %+v (ok=%v), want trace %d span %d", ex, ok, tr, sp.ID())
	}
}

// TestTracedSpanRecorderOnly checks that with only the recorder on a traced
// span still publishes its event, and that a ring-only stage never creates
// a histogram.
func TestTracedSpanRecorderOnly(t *testing.T) {
	_, rec := switches(t, false, true)
	st := TracedStage("test.ring_only_recorder", "ring_only")
	ringOnly := TracedStage("", "ring_only")
	tr := trace.NewTrace()
	st.StartTraced(Trace{Node: "n", ID: tr, Seg: -1}).End()
	ringOnly.StartTraced(Trace{Node: "n", ID: tr, Seg: -1}).End()
	st.Start().End() // untraced, no sink: inert
	if got := len(rec.Events()); got != 2 {
		t.Fatalf("ring holds %d events, want 2", got)
	}

	reg := NewRegistry()
	SetSink(reg)
	ringOnly.StartTraced(Trace{Node: "n", ID: tr, Seg: -1}).End()
	for _, name := range reg.Names() {
		if name == "" || name == "ring_only" {
			t.Fatalf("ring-only stage created registry series %q", name)
		}
	}
	if got := len(rec.Events()); got != 3 {
		t.Fatalf("ring holds %d events, want 3", got)
	}
}

// TestTracedSpanSinkOnly checks that with only the sink on a span carrying a
// trace context still observes the histogram, but takes no ID and offers no
// exemplar (there is no span to link to).
func TestTracedSpanSinkOnly(t *testing.T) {
	reg, _ := switches(t, true, false)
	st := TracedStage("test.sink_only", "sink_only")
	h := reg.Histogram("test.sink_only", "")
	h.EnableExemplars(0)
	sp := st.StartTraced(Trace{Node: "n", ID: 99, Parent: 3, Seg: 1})
	if sp.ID() != 0 {
		t.Fatalf("span took ID %d with no recorder", sp.ID())
	}
	sp.End()
	if v, _ := reg.HistogramView("test.sink_only"); v.Count != 1 {
		t.Fatalf("histogram count %d, want 1", v.Count)
	}
	if ex, ok := h.Exemplar(); ok {
		t.Fatalf("exemplar %+v captured for an untraced span", ex)
	}
}

// TestRegistryGetOrCreateAndRegister covers the two registration modes:
// get-or-create by name, and attaching caller-owned metric values.
func TestRegistryGetOrCreateAndRegister(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count", "help a")
	if c2 := reg.Counter("a.count", ""); c2 != c {
		t.Fatal("Counter get-or-create returned a different instance")
	}
	c.Add(3)
	if v, ok := reg.CounterValue("a.count"); !ok || v != 3 {
		t.Fatalf("CounterValue = %d,%v want 3,true", v, ok)
	}

	var mine Counter
	if err := reg.RegisterCounter("b.count", "mine", &mine); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterCounter("b.count", "dup", &mine); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	mine.Inc()
	if v, _ := reg.CounterValue("b.count"); v != 1 {
		t.Fatalf("registered counter reads %d, want 1", v)
	}

	g := reg.Gauge("g.val", "")
	g.Set(7)
	g.SetMax(5)
	if g.Load() != 7 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Load())
	}
	g.SetMax(9)
	if g.Load() != 9 {
		t.Fatalf("SetMax did not raise the gauge: %d", g.Load())
	}

	if err := reg.RegisterFunc("f.val", "", func() float64 { return 2.5 }); err != nil {
		t.Fatal(err)
	}
	names := strings.Join(reg.Names(), ",")
	for _, want := range []string{"a.count", "b.count", "g.val", "f.val"} {
		if !strings.Contains(names, want) {
			t.Fatalf("Names() = %s missing %s", names, want)
		}
	}
}

// TestRegistryKindMismatch pins the never-nil contract on kind collisions.
func TestRegistryKindMismatch(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	if g := reg.Gauge("x", ""); g == nil {
		t.Fatal("kind-mismatched Gauge returned nil")
	}
	if h := reg.Histogram("x", ""); h == nil {
		t.Fatal("kind-mismatched Histogram returned nil")
	}
	if _, ok := reg.HistogramView("x"); ok {
		t.Fatal("HistogramView found a counter")
	}
}

// TestRegistryConcurrentUse races creation, increments, and scrapes.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := []string{"c.one", "c.two", "c.three"}
			for i := 0; i < 500; i++ {
				reg.Counter(names[i%len(names)], "").Inc()
				reg.Histogram("h.lat", "").Observe(time.Microsecond)
				if i%100 == 0 {
					var sb strings.Builder
					if err := reg.WriteText(&sb); err != nil {
						panic(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, n := range []string{"c.one", "c.two", "c.three"} {
		v, ok := reg.CounterValue(n)
		if !ok {
			t.Fatalf("counter %s missing", n)
		}
		total += v
	}
	if total != 8*500 {
		t.Fatalf("counter total %d, want %d", total, 8*500)
	}
	if v, _ := reg.HistogramView("h.lat"); v.Count != 8*500 {
		t.Fatalf("histogram count %d, want %d", v.Count, 8*500)
	}
}
