package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// buildTestRegistry populates one of every metric kind.
func buildTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("net.blocks_sent", "blocks fully written").Add(42)
	reg.Gauge("net.queue_len", "live queue depth").Set(7)
	reg.RegisterFunc("net.session_seconds", "summed session time", func() float64 { return 1.5 })
	h := reg.Histogram("rlnc.encode_batch", "encode batch latency")
	h.Observe(300 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	return reg
}

// TestWriteTextRoundTrip checks the exposition through the in-repo parser:
// every emitted sample parses, the values survive, and the histogram's
// cumulative buckets are monotone and end at the count.
func TestWriteTextRoundTrip(t *testing.T) {
	reg := buildTestRegistry()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, text)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	if byKey["net_blocks_sent"] != 42 {
		t.Fatalf("net_blocks_sent = %v, want 42", byKey["net_blocks_sent"])
	}
	if byKey["net_queue_len"] != 7 {
		t.Fatalf("net_queue_len = %v, want 7", byKey["net_queue_len"])
	}
	if byKey["net_session_seconds"] != 1.5 {
		t.Fatalf("net_session_seconds = %v, want 1.5", byKey["net_session_seconds"])
	}
	if byKey["rlnc_encode_batch_count"] != 3 {
		t.Fatalf("histogram count = %v, want 3", byKey["rlnc_encode_batch_count"])
	}
	if byKey[`rlnc_encode_batch_bucket{le="+Inf"}`] != 3 {
		t.Fatalf("+Inf bucket = %v, want 3", byKey[`rlnc_encode_batch_bucket{le="+Inf"}`])
	}
	// Cumulative monotonicity across the emitted buckets, in order.
	var prev float64 = -1
	seen := 0
	for _, s := range samples {
		if s.Name != "rlnc_encode_batch_bucket" {
			continue
		}
		seen++
		if s.Value < prev {
			t.Fatalf("bucket counts not cumulative: %v after %v", s.Value, prev)
		}
		prev = s.Value
	}
	if seen < 3 {
		t.Fatalf("only %d buckets emitted for a 3-sample histogram", seen)
	}
	if !strings.Contains(text, "# TYPE rlnc_encode_batch histogram") {
		t.Fatalf("missing histogram TYPE line:\n%s", text)
	}
}

// TestRegistryScrape: Scrape is the WriteText → ParseText round trip keyed by
// TextSample.Key — one entry per sample line, histogram buckets under their
// le label.
func TestRegistryScrape(t *testing.T) {
	reg := buildTestRegistry()
	vals, err := reg.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(samples) {
		t.Fatalf("Scrape holds %d keys, exposition has %d samples", len(vals), len(samples))
	}
	for _, s := range samples {
		if got, ok := vals[s.Key()]; !ok || got != s.Value {
			t.Errorf("Scrape[%s] = %v (present %v), exposition says %v", s.Key(), got, ok, s.Value)
		}
	}
	for key, want := range map[string]float64{
		"net_blocks_sent":                     42,
		"rlnc_encode_batch_count":             3,
		`rlnc_encode_batch_bucket{le="+Inf"}`: 3,
	} {
		if vals[key] != want {
			t.Errorf("Scrape[%s] = %v, want %v", key, vals[key], want)
		}
	}
}

// TestParseTextRejectsGarbage pins the parser's error behavior.
func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"1leading_digit 3\n",
		"name{unterminated=\"x\" 3\n",
		"name{a=b} 3\n",
		"name 3 4 5\n",
		"name notafloat\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
	good := "# a comment\n\nok_metric{a=\"x,y\",b=\"q\\\"z\"} 3.5 1700000000\n"
	samples, err := ParseText(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ParseText rejected valid input: %v", err)
	}
	if len(samples) != 1 || samples[0].Labels["a"] != "x,y" || samples[0].Labels["b"] != `q"z` {
		t.Fatalf("parsed %+v", samples)
	}
}

// TestSnapshotJSONShape checks the JSON snapshot carries every kind with the
// documented keys.
func TestSnapshotJSONShape(t *testing.T) {
	reg := buildTestRegistry()
	raw, err := json.Marshal(reg.SnapshotJSON())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Counters   map[string]int64              `json:"counters"`
		Gauges     map[string]float64            `json:"gauges"`
		Histograms map[string]map[string]float64 `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["net.blocks_sent"] != 42 {
		t.Fatalf("counters = %v", got.Counters)
	}
	if got.Gauges["net.queue_len"] != 7 || got.Gauges["net.session_seconds"] != 1.5 {
		t.Fatalf("gauges = %v", got.Gauges)
	}
	h := got.Histograms["rlnc.encode_batch"]
	if h["count"] != 3 || h["p50_s"] <= 0 || h["p99_s"] < h["p50_s"] || h["max_s"] <= 0 {
		t.Fatalf("histogram snapshot = %v", h)
	}
}

// TestHandlerRouting pins the endpoint contract: Prometheus text on
// /metrics, JSON with the right Content-Type on /metrics.json, pprof at
// /debug/pprof/, and 404 anywhere else.
func TestHandlerRouting(t *testing.T) {
	reg := buildTestRegistry()
	h := Handler(reg, func() map[string]any {
		return map[string]any{"server": map[string]any{"sessions": 3}}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	if _, err := ParseText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics body does not parse: %v", err)
	}

	resp, body = get("/metrics.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics.json Content-Type %q, want application/json", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if _, ok := doc["server"]; !ok {
		t.Fatalf("extra snapshot block missing from /metrics.json: %v", doc)
	}
	if _, ok := doc["counters"]; !ok {
		t.Fatalf("registry block missing from /metrics.json: %v", doc)
	}

	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	for _, path := range []string{"/", "/metricsx", "/metrics/extra", "/favicon.ico"} {
		if resp, _ := get(path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestLogEveryLine checks the structured progress line shape directly.
func TestLogEveryLine(t *testing.T) {
	reg := buildTestRegistry()
	var sb strings.Builder
	writeLogLine(&sb, time.Unix(1700000000, 0), reg)
	line := sb.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("progress record is not a single line: %q", line)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("progress line not JSON: %v", err)
	}
	if doc["ts"] == "" || doc["net.blocks_sent"] != float64(42) {
		t.Fatalf("progress line = %v", doc)
	}
	if _, ok := doc["rlnc.encode_batch"].(map[string]any); !ok {
		t.Fatalf("histogram headline missing: %v", doc)
	}
}
