package main

import (
	"fmt"
	"sync"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// traceRing is the flight-recorder capacity for the traced phase; the phase
// ends early once three quarters of it is used, so the ring never wraps.
const traceRing = 1 << 18

// shareStages are the trace stages whose share of generation time names the
// bounding layer, in the order trace.Assembly.Table renders them.
var shareStages = []string{"encode", "queue_offer", "flush", "absorb", "recode"}

// histStages are the obs stage histograms the per-layer metrics read.
var histStages = []string{
	"netio.queue_offer", "netio.record_send", "netio.handshake",
	"fetch.record_decode", "mesh.recode", "mesh.relay_absorb",
}

// runTraced is the per-layer run. It measures an untraced phase (the
// reference for the tracing overhead), then a traced phase on a fresh
// topology with the obs stage sink and the trace recorder on, captures the
// record stream one leaf received, and replays it through the rlnc and
// netio public calls. No number it reports is an end-to-end metric.
func runTraced(w workload, in inputs, dur time.Duration) (result, error) {
	half := dur / 2
	r, _, err := setUp(w, in, false)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plain := runPhase(r, half, loadOpts{})
	r.close()

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	rec := trace.Enable(traceRing)
	tr, _, err := setUp(w, in, true)
	if err != nil {
		obs.SetSink(nil)
		trace.Disable()
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	histBefore := histViews(reg)
	var capMu sync.Mutex
	var captured []*rlnc.CodedBlock
	traced := runPhase(tr, half, loadOpts{
		instrument: true,
		tap: func(b *rlnc.CodedBlock) {
			capMu.Lock()
			captured = append(captured, b)
			capMu.Unlock()
		},
		stop: func() bool { return rec.Published() > uint64(rec.Cap())*3/4 },
	})
	warmup := tr.warmup
	tr.close()
	trace.Disable()
	obs.SetSink(nil)
	histAfter := histViews(reg)
	asm := trace.Assemble(rec.Events())

	m := map[string]metric{}
	layerNetio(m, &traced, histBefore, histAfter)
	layerFetch(m, w, &traced, histBefore, histAfter)
	layerTrace(m, asm)
	m["obs.trace_overhead_frac"] = metric{1 - ratio(traced.goodputMBps(), plain.goodputMBps()), "ratio"}
	if w.relay {
		layerMesh(m, histAfter, warmup)
	} else if err := relayProbe(m, w, in); err != nil {
		return result{}, err
	}
	if err := layerCodec(m, w, in, captured); err != nil {
		return result{}, err
	}

	printWhereTimeGoes(w, m, asm)
	return result{
		Correct:   !plain.mismatched() && !traced.mismatched() && len(captured) > 0,
		Attempted: len(plain.samples) + len(traced.samples),
		Failed:    plain.failed() + traced.failed(),
		Metrics:   m,
	}, nil
}

func histViews(reg *obs.Registry) map[string]obs.HistogramView {
	out := make(map[string]obs.HistogramView, len(histStages))
	for _, name := range histStages {
		if v, ok := reg.HistogramView(name); ok {
			out[name] = v
		}
	}
	return out
}

// meanUs is a stage's mean span over the window, from the histogram's exact
// Sum and Count (its quantiles sit on power-of-two buckets).
func meanUs(v obs.HistogramView) float64 {
	return ratio(float64(v.Sum)/float64(time.Microsecond), float64(v.Count))
}

func delta(before, after map[string]obs.HistogramView, name string) obs.HistogramView {
	return after[name].Sub(before[name])
}

// layerNetio reads the serving layer: snapshot deltas of the server the
// leaves fetch from, and its stage histograms over the traced phase.
func layerNetio(m map[string]metric, ph *phase, hb, ha map[string]obs.HistogramView) {
	b, a := ph.before.CounterView, ph.after.CounterView
	encoded := float64(a.BlocksEncoded - b.BlocksEncoded)
	sent := float64(a.BlocksSent - b.BlocksSent)
	offered := float64(a.BlocksOffered - b.BlocksOffered)
	send := delta(hb, ha, "netio.record_send")
	m["netio.encoded_per_sent"] = metric{ratio(encoded, sent), "ratio"}
	m["netio.shed_frac"] = metric{ratio(float64(a.BlocksShed-b.BlocksShed), offered), "ratio"}
	m["netio.stall_frac"] = metric{ratio(float64(a.EncodeStall-b.EncodeStall), float64(ph.wall)), "ratio"}
	m["netio.queue_offer_us"] = metric{meanUs(delta(hb, ha, "netio.queue_offer")), "us"}
	m["netio.record_send_us"] = metric{meanUs(send), "us"}
	m["netio.records_per_flush"] = metric{ratio(sent, float64(send.Count)), "count"}
	m["netio.handshake_us"] = metric{meanUs(delta(hb, ha, "netio.handshake")), "us"}
}

// layerFetch reads the client layer from the traced phase's samples (dial
// time and blocked-read time from the connection wrapper) and the fetcher's
// record-decode stage.
func layerFetch(m map[string]metric, w workload, ph *phase, hb, ha map[string]obs.HistogramView) {
	var wait, elapsed, dial time.Duration
	var records, over int
	for _, s := range ph.samples {
		wait += s.readWait
		elapsed += s.elapsed
		dial += s.dial
		if s.err == nil {
			records += s.records
			over += overshoot(s.records, s.dependent, w.n, w.segments)
		}
	}
	m["fetch.read_wait_frac"] = metric{ratio(float64(wait), float64(elapsed)), "ratio"}
	m["fetch.dial_ms"] = metric{ratio(float64(dial)/float64(time.Millisecond), float64(len(ph.samples))), "ms"}
	m["fetch.overshoot_frac"] = metric{ratio(float64(over), float64(records)), "ratio"}
	m["fetch.record_decode_us"] = metric{meanUs(delta(hb, ha, "fetch.record_decode")), "us"}
}

// layerTrace computes each stage's share: its summed span time over the
// summed generation Elapsed. Shares can exceed 1 when stages overlap
// (two leaves absorb at once).
func layerTrace(m map[string]metric, asm *trace.Assembly) {
	var elapsed time.Duration
	for i := range asm.Generations {
		elapsed += asm.Generations[i].Elapsed
	}
	for _, st := range shareStages {
		var total time.Duration
		for i := range asm.Generations {
			total += asm.Generations[i].StageTotal(st)
		}
		m["trace."+st+"_share"] = metric{ratio(float64(total), float64(elapsed)), "ratio"}
	}
}

// layerMesh reads the relay stages: recode per pump batch and absorb per
// upstream record, over the whole traced topology (relay absorb happens
// during warm-up), plus the warm-up time itself.
func layerMesh(m map[string]metric, ha map[string]obs.HistogramView, warmup time.Duration) {
	m["mesh.recode_us"] = metric{meanUs(ha["mesh.recode"]), "us"}
	m["mesh.relay_absorb_us"] = metric{meanUs(ha["mesh.relay_absorb"]), "us"}
	m["mesh.warmup_s"] = metric{warmup.Seconds(), "s"}
}

// relayProbeFetches is how many fetches the relay probe runs.
const relayProbeFetches = 8

// relayProbe measures the mesh layer on a workload that serves without a
// relay: it warms one relay off this workload's origin and runs a few
// fetches through it, so every workload reports the relay stages at its
// own shape.
func relayProbe(m map[string]metric, w workload, in inputs) error {
	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)
	rw := w
	rw.relay = true
	r, err := startRig(rw, in, false)
	if err != nil {
		return fmt.Errorf("relay probe: %w", err)
	}
	defer r.close()
	for i := 0; i < relayProbeFetches; i++ {
		if s := fetchOnce(r, int64(-2-i), false, nil); s.err != nil {
			return fmt.Errorf("relay probe fetch: %w", s.err)
		}
	}
	layerMesh(m, histViews(reg), r.warmup)
	return nil
}

// layerCodec measures the kernels directly at the workload's k over n rows
// and replays the captured record stream through the rlnc and netio public
// calls.
func layerCodec(m map[string]metric, w workload, in inputs, captured []*rlnc.CodedBlock) error {
	kr := newKernelRows(w.n, w.k, in.serverSeed)
	m["host.copy_mbps"] = metric{rateMBps(kr.bytes(), kr.copyPass), "MB/s"}
	m["gf256.muladd_mbps"] = metric{rateMBps(kr.bytes(), kr.mulAddPass), "MB/s"}
	m["gf256.muladd4x2_mbps"] = metric{rateMBps(kr.bytes(), kr.mulAdd4x2Pass), "MB/s"}
	m["gf256.dot_mbps"] = metric{rateMBps(kr.bytes(), kr.dotPass), "MB/s"}
	m["gf256.xor4_mbps"] = metric{rateMBps(kr.bytes(), kr.xor4Pass), "MB/s"}

	obj, err := rlnc.Split(in.media, w.params())
	if err != nil {
		return fmt.Errorf("split object: %w", err)
	}
	seg := obj.Segments[0]
	m["rlnc.encode_us_per_rec"] = metric{encodeReplay(w, seg, in.serverSeed), "us"}
	m["rlnc.systematic_us_per_rec"] = metric{systematicReplay(seg, in.serverSeed), "us"}
	absorbUs, depFrac := absorbReplay(w, captured)
	m["rlnc.absorb_us_per_rec"] = metric{absorbUs, "us"}
	m["rlnc.dependent_frac"] = metric{depFrac, "ratio"}
	m["rlnc.unmarshal_ns_per_rec"] = metric{unmarshalReplay(wireRecords(w, captured)), "ns"}
	addUs, emitUs := recoderReplay(w, captured, in.relaySeed)
	m["rlnc.recoder_add_us_per_rec"] = metric{addUs, "us"}
	m["rlnc.recode_us_per_rec"] = metric{emitUs, "us"}
	m["netio.frame_ns_per_rec"] = metric{frameReplay(w, captured), "ns"}
	return nil
}

// printWhereTimeGoes prints the per-layer report: the trace share table and
// the stage with the largest share, which names the bounding layer.
func printWhereTimeGoes(w workload, m map[string]metric, asm *trace.Assembly) {
	fmt.Printf("where time goes: %s (%d generations, %d spans, %d orphans)\n",
		w.name, len(asm.Generations), asm.Spans, asm.Orphans)
	top, topShare := "", -1.0
	for _, st := range shareStages {
		v := m["trace."+st+"_share"].Value
		fmt.Printf("  %-12s %8.3f\n", st, v)
		if v > topShare {
			top, topShare = st, v
		}
	}
	fmt.Printf("  bounding layer: %s (%s share %.3f)\n", stageLayer[top], top, topShare)
	if w.relay {
		fmt.Println("  (the relay pump's encode span wraps its recode span)")
	}
}

// stageLayer maps a trace stage to the layer that does its work.
var stageLayer = map[string]string{
	"encode":      "server pump encode (rlnc)",
	"queue_offer": "netio fan-out",
	"flush":       "netio flush (writev)",
	"absorb":      "rlnc absorb (leaf decode)",
	"recode":      "mesh relay recode",
}
