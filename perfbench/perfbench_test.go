package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

func TestPercentileTenBeyond(t *testing.T) {
	if got := samplesFor(0.9, minBeyond); got != 100 {
		t.Fatalf("samplesFor(0.9, 10) = %d, want 100", got)
	}
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n        int
		q        float64
		v        float64
		beyond   int
		supports bool
	}{
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{110, 0.9, 99, 11, true},
		{100, 0.5, 50, 50, true},
		{1, 0.9, 1, 0, false},
	} {
		v, beyond := percentile(seq(tc.n), tc.q)
		if v != tc.v || beyond != tc.beyond || (beyond >= minBeyond) != tc.supports {
			t.Errorf("n=%d q=%v: got %v with %d beyond, want %v with %d", tc.n, tc.q, v, beyond, tc.v, tc.beyond)
		}
	}

	// Failed fetches sort last as +Inf: with 11 of 100 failed, p90 misses
	// every latency limit and is reported as the fetch timeout.
	lat := seq(100)
	for i := 89; i < 100; i++ {
		lat[i] = math.Inf(1)
	}
	sort.Float64s(lat)
	p90, _ := percentile(lat, 0.9)
	if !math.IsInf(p90, 1) {
		t.Fatalf("p90 with 11%% failures = %v, want +Inf", p90)
	}
	if got, want := capLatency(p90), float64(fetchTimeout/time.Millisecond); got != want {
		t.Fatalf("capLatency(+Inf) = %v, want %v", got, want)
	}
	if p50, _ := percentile(lat, 0.5); p50 != 50 {
		t.Fatalf("p50 = %v, want 50", p50)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestOvershootCounting fetches a tiny n=4 object and checks the
// arithmetic behind records_per_n and fetch.overshoot_frac against a record
// tap that mirrors the fetcher's decoders record by record.
func TestOvershootCounting(t *testing.T) {
	for _, mode := range []netio.WireMode{netio.ModeDense, netio.ModeSystematic} {
		w := workload{name: "tiny", n: 4, k: 64, segments: 3, mode: mode}
		in := makeInputs(w, 7)
		r, err := startRig(w, in, false)
		if err != nil {
			t.Fatal(err)
		}
		var totalRecords int64
		for i := 0; i < 5; i++ {
			shadow := map[uint32]*rlnc.Decoder{}
			tapped, over, dependent := 0, 0, 0
			tap := func(b *rlnc.CodedBlock) {
				tapped++
				dec := shadow[b.SegmentID]
				if dec == nil {
					dec, _ = rlnc.NewDecoder(w.params())
					shadow[b.SegmentID] = dec
				}
				if dec.Ready() {
					over++
					return
				}
				if innovative, _ := dec.AddBlock(b); !innovative {
					dependent++
				}
			}
			s := fetchOnce(r, int64(i), false, tap)
			if s.err != nil {
				t.Fatalf("%v fetch %d: %v", mode, i, s.err)
			}
			if tapped != s.records || dependent != s.dependent {
				t.Fatalf("%v fetch %d: tap saw %d records (%d dependent), stats %d (%d)", mode, i, tapped, dependent, s.records, s.dependent)
			}
			if got := overshoot(s.records, s.dependent, w.n, w.segments); got != over {
				t.Fatalf("%v fetch %d: overshoot %d, tap counted %d", mode, i, got, over)
			}
			totalRecords += int64(s.records)
		}
		r.close()
		want := float64(totalRecords) / float64(4*3*5)
		if got := recordsPerN(totalRecords, w.n, w.segments, 5); got != want || got < 1 {
			t.Fatalf("%v: records_per_n = %v, want %v (≥ 1)", mode, got, want)
		}
	}
}

func TestVerify(t *testing.T) {
	media := []byte("object")
	ok := &netio.FetchResult{Payload: []byte("object"), Stats: &netio.FetchStats{}}
	if err := verify(ok, nil, media); err != nil {
		t.Fatalf("clean fetch: %v", err)
	}
	bad := &netio.FetchResult{Payload: []byte("objecT"), Stats: &netio.FetchStats{}}
	if err := verify(bad, nil, media); !errors.Is(err, errMismatch) {
		t.Fatalf("wrong bytes: %v", err)
	}
	corrupt := &netio.FetchResult{Payload: []byte("object"), Stats: &netio.FetchStats{Corrupt: 1}}
	if err := verify(corrupt, nil, media); err == nil {
		t.Fatal("a corrupt record on clean loopback must fail the fetch")
	}
	ph := phase{samples: []fetchSample{{}, {err: errMismatch}}}
	if !ph.mismatched() || ph.failed() != 1 {
		t.Fatal("phase must report the mismatch as a failed, incorrect fetch")
	}
}

// contract reads the metric names BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, contract names %d", what, len(got), len(want))
	}
	for _, name := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("%s: metric %s = %v %q", what, name, m.Value, m.Unit)
		}
	}
}

// TestWorkloadSmoke runs a short untraced and a short traced pass of every
// workload and checks each reports the contract's metrics with every fetch
// verified. Under the race detector each workload keeps its mode and
// topology at a tiny shape.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass runs real loopback transfers")
	}
	endToEnd, perLayer := contract(t)
	for _, w := range workloads {
		if raceEnabled {
			w.n, w.k, w.segments = 8, 64, 2
		}
		in := makeInputs(w, 3)
		r, setup, err := setUp(w, in, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		ph := runPhase(r, 200*time.Millisecond, loadOpts{min: 4})
		r.close()
		res := endToEndResult(w, &ph, setup.Seconds(), maxRSSMB())
		if !res.Correct || res.Failed != 0 || res.Attempted < clients {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(t, w.name+" end-to-end", res.Metrics, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}

		tres, err := runTraced(w, in, 400*time.Millisecond)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !tres.Correct || tres.Failed != 0 {
			t.Fatalf("%s traced: correct=%v failed=%d", w.name, tres.Correct, tres.Failed)
		}
		sameNames(t, w.name+" per-layer", tres.Metrics, perLayer)
	}
}
