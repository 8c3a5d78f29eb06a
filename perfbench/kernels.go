package main

import (
	"math/rand"
	"time"

	"extremenc/internal/gf256"
)

// kernelRows is a workload-shaped working set for direct kernel calls: n
// source rows of k bytes and two destination rows.
type kernelRows struct {
	rows   [][]byte
	d1, d2 []byte
	coeffs []byte
}

func newKernelRows(n, k int, seed int64) *kernelRows {
	rng := rand.New(rand.NewSource(seed))
	kr := &kernelRows{rows: make([][]byte, n), d1: make([]byte, k), d2: make([]byte, k), coeffs: make([]byte, n)}
	for i := range kr.rows {
		kr.rows[i] = make([]byte, k)
		rng.Read(kr.rows[i])
		kr.coeffs[i] = byte(1 + rng.Intn(255))
	}
	return kr
}

func (kr *kernelRows) bytes() int { return len(kr.rows) * len(kr.d1) }

// Each pass below streams every source row once; rates count source bytes.

func (kr *kernelRows) copyPass() {
	for _, r := range kr.rows {
		copy(kr.d1, r)
	}
}

func (kr *kernelRows) mulAddPass() {
	for i, r := range kr.rows {
		gf256.MulAddSlice(kr.d1, r, kr.coeffs[i])
	}
}

func (kr *kernelRows) mulAdd4x2Pass() {
	rs, c := kr.rows, kr.coeffs
	i := 0
	for ; i+4 <= len(rs); i += 4 {
		gf256.MulAddSlice4x2(kr.d1, kr.d2, rs[i], rs[i+1], rs[i+2], rs[i+3],
			[4]byte{c[i], c[i+1], c[i+2], c[i+3]}, [4]byte{c[i+3], c[i+2], c[i+1], c[i]})
	}
	for ; i < len(rs); i++ {
		gf256.MulAddSlice(kr.d1, rs[i], c[i])
	}
}

func (kr *kernelRows) dotPass() { gf256.DotProduct(kr.d1, kr.coeffs, kr.rows) }

func (kr *kernelRows) xor4Pass() {
	rs := kr.rows
	i := 0
	for ; i+4 <= len(rs); i += 4 {
		gf256.XorSlice4(kr.d1, rs[i], rs[i+1], rs[i+2], rs[i+3])
	}
	for ; i < len(rs); i++ {
		gf256.XorSlice(kr.d1, rs[i])
	}
}

// kernelReps and kernelSlice shape one rate measurement: the median of
// kernelReps windows of at least kernelSlice each.
const (
	kernelReps  = 5
	kernelSlice = 40 * time.Millisecond
)

// rateMBps returns the median throughput of pass, in MB/s of bytesPerPass.
func rateMBps(bytesPerPass int, pass func()) float64 {
	pass()
	rates := make([]float64, kernelReps)
	for r := range rates {
		t0 := time.Now()
		iters := 0
		for time.Since(t0) < kernelSlice {
			pass()
			iters++
		}
		rates[r] = float64(bytesPerPass*iters) / 1e6 / time.Since(t0).Seconds()
	}
	return median(rates)
}

// driftProbe is the host drift gauge: plain copy bandwidth and one GF(2^8)
// multiply-add rate over a fixed 128×4096 input that no workload or seed
// changes. Runs on a drifting host are comparable only when interleaved.
type driftProbe struct {
	CopyMBps   float64 `json:"host.copy_mbps"`
	MulAddMBps float64 `json:"gf256.muladd_probe_mbps"`
}

var probeRows = newKernelRows(128, 4096, 1)

func measureDrift() driftProbe {
	return driftProbe{
		CopyMBps:   rateMBps(probeRows.bytes(), probeRows.copyPass),
		MulAddMBps: rateMBps(probeRows.bytes(), probeRows.mulAddPass),
	}
}
