package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newScanner(s string) *bufio.Scanner {
	return bufio.NewScanner(strings.NewReader(s))
}

const benchText = `goos: linux
goarch: amd64
pkg: extremenc/internal/gf256
cpu: Test CPU
BenchmarkMulAddLadder/table-scalar/k=4096-8   1000   1000 ns/op   1000.00 MB/s
BenchmarkMulAddLadder/fused4x2/k=4096-8       1000    500 ns/op   1700.00 MB/s
BenchmarkMulAddLadder/simd4x2/k=4096-8        1000     50 ns/op  17000.00 MB/s
BenchmarkXorLadder/xor-repair-encode/k=4096-8 1000    100 ns/op   5950.00 MB/s
garbage line that is not a benchmark
BenchmarkBroken   not-a-number   10 ns/op
`

func parseText(t *testing.T, text string) *Document {
	t.Helper()
	doc, err := parse(newScanner(text))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseAndDerive(t *testing.T) {
	doc := parseText(t, benchText)
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(doc.Benchmarks))
	}
	if doc.GOOS != "linux" || doc.CPU != "Test CPU" {
		t.Fatalf("host fields: %q %q", doc.GOOS, doc.CPU)
	}
	if doc.Benchmarks[0].Name != "BenchmarkMulAddLadder/table-scalar/k=4096" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", doc.Benchmarks[0].Name)
	}
	derive(doc)
	if got := doc.Derived["fused4x2_over_scalar_k4096_pct"]; got < 69 || got > 71 {
		t.Fatalf("fused4x2 pct = %v, want ~70", got)
	}
	if got := doc.Derived["xor_repair_encode_over_fused4x2_k4096_x"]; got < 3.4 || got > 3.6 {
		t.Fatalf("xor multiple = %v, want ~3.5", got)
	}
	if got := doc.Derived["simd4x2_over_fused4x2_k4096_x"]; got < 9.9 || got > 10.1 {
		t.Fatalf("simd multiple = %v, want 10", got)
	}
	if got := doc.Derived["xor_repair_encode_over_simd4x2_k4096_x"]; got < 0.34 || got > 0.36 {
		t.Fatalf("xor over simd multiple = %v, want 0.35", got)
	}
}

const serveText = `goos: linux
pkg: extremenc/cmd/ncload
BenchmarkServeLoad/fanout=record/shards=1/sessions=1024        1  900000 ns/op  120.00 MB/s  40000 p50-ns  900000 p99-ns  1.25 shed-pct
BenchmarkServeLoad/fanout=amortized/shards=1/sessions=1024     1  800000 ns/op  160.00 MB/s  30000 p50-ns  700000 p99-ns  0.50 shed-pct
BenchmarkServeLoad/fanout=record/shards=1/sessions=4096        1  950000 ns/op  110.00 MB/s  50000 p50-ns  990000 p99-ns  2.00 shed-pct
BenchmarkServeLoad/fanout=amortized/shards=2/sessions=4096     1  700000 ns/op  150.00 MB/s  35000 p50-ns  750000 p99-ns  0.75 shed-pct
BenchmarkServeLoad/fanout=amortized/shards=4/sessions=4096     1  600000 ns/op  176.00 MB/s  30000 p50-ns  650000 p99-ns  0.60 shed-pct
`

// TestDeriveServe pins the serving-ladder schema: extra value/unit columns
// land in Extra, and the gated multiple compares the best sharded amortized
// wave against the single-pump per-record baseline at the deepest session
// count (4096 here — the shallower 1024-session waves must not be compared).
func TestDeriveServe(t *testing.T) {
	doc := parseText(t, serveText)
	if len(doc.Benchmarks) != 5 {
		t.Fatalf("parsed %d serve waves, want 5", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Extra["p99-ns"] != 900000 || b.Extra["p50-ns"] != 40000 || b.Extra["shed-pct"] != 1.25 {
		t.Fatalf("extra columns not captured: %+v", b.Extra)
	}
	derive(doc)
	got := doc.Derived["serve_sharded_over_single_x"]
	if got < 1.59 || got > 1.61 { // 176 / 110
		t.Fatalf("serve_sharded_over_single_x = %v, want 1.6", got)
	}
	if doc.Derived["serve_peak_sessions"] != 4096 {
		t.Fatalf("serve_peak_sessions = %v, want 4096", doc.Derived["serve_peak_sessions"])
	}
	if doc.Derived["serve_peak_agg_mb_s"] != 176 {
		t.Fatalf("serve_peak_agg_mb_s = %v, want 176", doc.Derived["serve_peak_agg_mb_s"])
	}
	if doc.Derived["serve_peak_p99_ms"] != 0.65 {
		t.Fatalf("serve_peak_p99_ms = %v, want 0.65", doc.Derived["serve_peak_p99_ms"])
	}

	// Without the single-pump baseline at the deepest depth, no serve keys
	// are derived at all: a half-measured ladder must not invent a gate.
	partial := parseText(t, strings.Replace(serveText,
		"BenchmarkServeLoad/fanout=record/shards=1/sessions=4096", "BenchmarkSomethingElse", 1))
	derive(partial)
	if _, ok := partial.Derived["serve_sharded_over_single_x"]; ok {
		t.Fatal("serve ratio derived without its baseline wave")
	}
}

func TestCheckGates(t *testing.T) {
	fresh := parseText(t, benchText)
	derive(fresh)
	committed := &Document{Derived: map[string]float64{
		"xor_repair_encode_over_fused4x2_k4096_x": 3.2,
		"fused4x2_over_scalar_k4096_pct":          65,
		"xor_blended_loss_1pct_mb_s":              99999, // absolute: never gated
	}}

	if fails := check(fresh, committed, 0.25); len(fails) != 0 {
		t.Fatalf("healthy run failed the gate: %v", fails)
	}

	// A fresh ratio far below the committed one trips the gate.
	committed.Derived["xor_repair_encode_over_fused4x2_k4096_x"] = 50
	fails := check(fresh, committed, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "xor_repair_encode") {
		t.Fatalf("regression not caught: %v", fails)
	}

	// A committed ratio key missing from the fresh run is a failure too.
	committed.Derived["xor_repair_encode_over_fused4x2_k4096_x"] = 3.2
	committed.Derived["vanished_gate_x"] = 2
	fails = check(fresh, committed, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "vanished_gate_x: missing") {
		t.Fatalf("missing key not caught: %v", fails)
	}
}

func TestRunCheckMode(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "BENCH_host.json")

	// Commit an artifact from one run, then re-check the same text: a
	// byte-identical rerun always passes its own gate.
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(benchText), &out); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artifact, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("emitted artifact is not valid JSON: %v", err)
	}
	if err := run([]string{"-check", artifact}, strings.NewReader(benchText), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	// Degrade the fresh XOR rung 10×: the gate must fail even at a wide
	// tolerance, and pass when the tolerance admits anything.
	degraded := strings.Replace(benchText, "5950.00", "595.00", 1)
	err := run([]string{"-check", artifact, "-tolerance", "0.5"}, strings.NewReader(degraded), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "derived-ratio gate failed") {
		t.Fatalf("degraded run passed the gate: %v", err)
	}
	if err := run([]string{"-check", artifact, "-tolerance", "0.99"}, strings.NewReader(degraded), &bytes.Buffer{}); err != nil {
		t.Fatalf("0.99 tolerance still failed: %v", err)
	}

	if err := run([]string{"-check", filepath.Join(dir, "nope.json")}, strings.NewReader(benchText), &bytes.Buffer{}); err == nil {
		t.Fatal("missing artifact accepted")
	}
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("empty input accepted")
	}
}
