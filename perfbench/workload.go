package main

import (
	"fmt"
	"math/rand"

	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

// workload is one shape of streamed object and serving topology. Every
// record the harness moves is a real coded record of this shape, and every
// fetch is byte-verified against the generated object.
type workload struct {
	name     string
	n, k     int // blocks per segment, bytes per block
	segments int
	mode     netio.WireMode
	relay    bool // leaves fetch from one recoding relay fed by the origin
}

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names with the reason each was chosen.
var workloads = []workload{
	{name: "dense-128x4k", n: 128, k: 4096, segments: 2, mode: netio.ModeDense},
	{name: "small-16x256", n: 16, k: 256, segments: 64, mode: netio.ModeDense},
	{name: "systematic-128x4k", n: 128, k: 4096, segments: 2, mode: netio.ModeSystematic},
	{name: "relay-128x4k", n: 128, k: 4096, segments: 2, mode: netio.ModeDense, relay: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v, or all)", name, names)
}

func (w workload) params() rlnc.Params { return rlnc.Params{BlockCount: w.n, BlockSize: w.k} }

// objectBytes is the size of the streamed object: whole segments only, so
// every segment carries n full source blocks.
func (w workload) objectBytes() int { return w.n * w.k * w.segments }

// inputs is everything the workload seed determines. The program under test
// receives only these values.
type inputs struct {
	media      []byte
	serverSeed int64 // origin coefficient stream
	relaySeed  int64 // relay recombination stream
	fetchSeed  int64 // base of the per-fetch backoff jitter seeds
}

func makeInputs(w workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	media := make([]byte, w.objectBytes())
	rng.Read(media)
	return inputs{
		media:      media,
		serverSeed: 1 + rng.Int63n(1<<40),
		relaySeed:  1 + rng.Int63n(1<<40),
		fetchSeed:  1 + rng.Int63n(1<<40),
	}
}
