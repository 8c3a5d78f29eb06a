package trace_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
)

// Spans reach the ring through obs stages. These are ring-only: no sink is
// installed in this package's tests, and none of them names a histogram.
var (
	stServe  = obs.TracedStage("", "serve")
	stRound  = obs.TracedStage("", "round")
	stEncode = obs.TracedStage("", "encode")
	stAbsorb = obs.TracedStage("", "absorb")
	stStage  = obs.TracedStage("", "stage")
)

// enable installs a fresh recorder for one test and removes it afterwards.
func enable(t *testing.T, size int) *trace.Recorder {
	t.Helper()
	r := trace.Enable(size)
	t.Cleanup(trace.Disable)
	return r
}

func start(st *obs.Stage, node string, tr trace.TraceID, parent trace.SpanID, seg int32) obs.Span {
	return st.StartTraced(obs.Trace{Node: node, ID: tr, Parent: parent, Seg: seg})
}

func TestDisabledPathInert(t *testing.T) {
	trace.Disable()

	sp := start(stStage, "n", 1, 2, 0)
	if sp.Active() || sp.ID() != 0 {
		t.Fatalf("disabled span is live: %+v", sp)
	}
	sp.End()
	trace.Emit(trace.KindShed, "n", "", -1, 3)
	if trace.NewTrace() != 0 {
		t.Fatal("disabled NewTrace must return 0")
	}
	if trace.Dump() != nil {
		t.Fatal("disabled Dump must return nil")
	}
	var doc trace.DumpDoc
	if err := json.Unmarshal(trace.DumpJSON(), &doc); err != nil {
		t.Fatalf("disabled DumpJSON invalid: %v", err)
	}
	if doc.Enabled || len(doc.Events) != 0 {
		t.Fatalf("disabled DumpJSON = %+v", doc)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	trace.Disable()

	if n := testing.AllocsPerRun(200, func() {
		sp := start(stStage, "node", 7, 9, 3)
		sp.End()
		trace.Emit(trace.KindBrownout, "node", "paced", -1, 1)
		_ = trace.NewTrace()
	}); n != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", n)
	}
}

func TestSpanRecordsTree(t *testing.T) {
	enable(t, 64)
	tr := trace.NewTrace()
	root := start(stServe, "origin", tr, 0, -1)
	child := start(stEncode, "origin", tr, root.ID(), 2)
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	evs := trace.Dump()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Stage != "encode" || evs[0].Parent != root.ID() || evs[0].Seg != 2 {
		t.Fatalf("child event wrong: %+v", evs[0])
	}
	if evs[0].Dur < time.Millisecond {
		t.Fatalf("child duration %v, want >= 1ms", evs[0].Dur)
	}
	if evs[0].Start() != evs[0].TS-int64(evs[0].Dur) {
		t.Fatal("Start() inconsistent with TS/Dur")
	}
	if evs[1].Stage != "serve" || evs[1].Parent != 0 || evs[1].Seg != -1 {
		t.Fatalf("root event wrong: %+v", evs[1])
	}
	if evs[0].Trace != tr || evs[1].Trace != tr {
		t.Fatal("trace ID not propagated")
	}
}

func TestIDsUnique(t *testing.T) {
	enable(t, 64)
	seen := map[trace.SpanID]bool{}
	for i := 0; i < 100; i++ {
		sp := start(stStage, "n", 1, 0, -1)
		if sp.ID() == 0 || seen[sp.ID()] {
			t.Fatalf("duplicate or zero span ID %d", sp.ID())
		}
		seen[sp.ID()] = true
	}
	if tr := trace.NewTrace(); seen[trace.SpanID(tr)] {
		t.Fatal("trace ID collided with span ID")
	}
}

// TestConcurrentRecord hammers the ring from many goroutines under -race:
// every snapshot event must be internally consistent and sequence numbers
// strictly increasing.
func TestConcurrentRecord(t *testing.T) {
	r := enable(t, 256)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				start(stStage, "node", trace.TraceID(w+1), 0, int32(i%4)).End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			evs := r.Events()
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Fatalf("sequence not increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
				}
			}
			if r.Published() != workers*per {
				t.Fatalf("Published = %d, want %d", r.Published(), workers*per)
			}
			return
		default:
			for _, e := range r.Events() {
				if e.Kind != trace.KindSpan || e.Node != "node" || e.Stage != "stage" {
					t.Fatalf("torn event: %+v", e)
				}
			}
		}
	}
}

func TestAssembleBreakdown(t *testing.T) {
	enable(t, 1024)
	tr := trace.NewTrace()
	origin := start(stServe, "origin", tr, 0, -1)
	for seg := int32(0); seg < 2; seg++ {
		round := start(stRound, "origin", tr, origin.ID(), seg)
		start(stEncode, "origin", tr, round.ID(), seg).End()
		start(stAbsorb, "leaf-0", tr, round.ID(), seg).End()
		round.End()
	}
	origin.End()

	a := trace.Assemble(trace.Dump())
	if a.Orphans != 0 {
		t.Fatalf("orphans = %d, want 0", a.Orphans)
	}
	if a.Roots != 1 {
		t.Fatalf("roots = %d, want 1", a.Roots)
	}
	if len(a.Generations) != 2 {
		t.Fatalf("generations = %d, want 2", len(a.Generations))
	}
	g := &a.Generations[0]
	if g.Trace != tr || g.Seg != 0 {
		t.Fatalf("generation key wrong: %+v", g)
	}
	if s := g.Stage("origin", "encode"); s == nil || s.Count != 1 {
		t.Fatalf("origin/encode aggregate missing: %+v", g.Stages)
	}
	if s := g.Stage("leaf-0", "absorb"); s == nil || s.Count != 1 {
		t.Fatalf("leaf-0/absorb aggregate missing: %+v", g.Stages)
	}
	if g.Elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", g.Elapsed)
	}
	tab := a.Table()
	for _, want := range []string{"trace", "encode", "absorb", "e2e", "orphans=0"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
	if _, err := a.JSON(); err != nil {
		t.Fatalf("JSON: %v", err)
	}
}

func TestAssembleOrphanDetection(t *testing.T) {
	enable(t, 64)
	tr := trace.NewTrace()
	// Child references a parent span that is never published.
	start(stAbsorb, "leaf", tr, trace.SpanID(9999), 0).End()
	a := trace.Assemble(trace.Dump())
	if a.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", a.Orphans)
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	enable(t, 64)
	trace.Emit(trace.KindAdmission, "origin", "busy", -1, 25)
	start(stServe, "origin", trace.NewTrace(), 0, -1).End()
	var doc trace.DumpDoc
	if err := json.Unmarshal(trace.DumpJSON(), &doc); err != nil {
		t.Fatalf("DumpJSON invalid: %v", err)
	}
	if !doc.Enabled || len(doc.Events) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Events[0].Kind != trace.KindAdmission || doc.Events[0].Stage != "busy" {
		t.Fatalf("admission event wrong after round trip: %+v", doc.Events[0])
	}
	if doc.Events[1].Kind != trace.KindSpan {
		t.Fatalf("span kind wrong after round trip: %+v", doc.Events[1])
	}
}
