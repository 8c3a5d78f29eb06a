package main

import (
	"fmt"
	"math"
	"time"
)

// setupRounds is how many times a run builds the topology; setup_s is the
// median, and the last topology built serves the measured phase.
const setupRounds = 9

// setUp builds the topology and completes one untimed warm-up fetch,
// returning the rig and the wall time it took.
func setUp(w workload, in inputs, traced bool) (*rig, time.Duration, error) {
	t0 := time.Now()
	r, err := startRig(w, in, traced)
	if err != nil {
		return nil, 0, err
	}
	if s := fetchOnce(r, -1, false, nil); s.err != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm-up fetch: %w", s.err)
	}
	return r, time.Since(t0), nil
}

// runEndToEnd is the untraced run: set-up rounds, then one closed-loop
// measured phase.
func runEndToEnd(w workload, in inputs, dur time.Duration) (result, error) {
	var r *rig
	setups := make([]float64, setupRounds)
	for i := range setups {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if r, d, err = setUp(w, in, false); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = d.Seconds()
	}
	ph := runPhase(r, dur, loadOpts{min: minFetches})
	r.close()
	return endToEndResult(w, &ph, median(setups), maxRSSMB()), nil
}

func endToEndResult(w workload, ph *phase, setupS, rssMB float64) result {
	lat := ph.latenciesMS()
	p50, _ := percentile(lat, 0.5)
	p90, _ := percentile(lat, 0.9)
	var records int64
	ok := 0
	for _, s := range ph.samples {
		if s.err == nil {
			records += int64(s.records)
			ok++
		}
	}
	mb := float64(ph.verified) / 1e6
	failed := ph.failed()
	return result{
		Correct:   !ph.mismatched(),
		Attempted: len(ph.samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"goodput_mbps":         {ph.goodputMBps(), "MB/s"},
			"fetch_ms_p50":         {capLatency(p50), "ms"},
			"fetch_ms_p90":         {capLatency(p90), "ms"},
			"cpu_ms_per_mb":        {ratio(float64(ph.cpu)/float64(time.Millisecond), mb), "ms/MB"},
			"records_per_n":        {recordsPerN(records, w.n, w.segments, ok), "ratio"},
			"alloc_bytes_per_byte": {ratio(float64(ph.alloc), float64(ph.verified)), "ratio"},
			"max_rss_mb":           {rssMB, "MB"},
			"setup_s":              {setupS, "s"},
		},
	}
}

// capLatency reports a percentile that falls on a failed fetch as the fetch
// timeout, the least it could have cost.
func capLatency(ms float64) float64 {
	if math.IsInf(ms, 1) || math.IsNaN(ms) {
		return float64(fetchTimeout) / float64(time.Millisecond)
	}
	return ms
}
