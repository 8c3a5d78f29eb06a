package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// Differential coverage for the dispatched kernels: every exported kernel is
// held byte-identical to its portable body (the whole-row function that is
// the fallback on hosts without AVX2). Rows sit at every offset 0–31 into
// their backing arrays, lengths run 0–300 plus the paper's 4096, and guard
// bytes after each destination row must come back untouched. On a host
// without the vector rung both sides run the portable code and the tests
// pass trivially; on an AVX2 host they pin the assembly, its 32-byte prefix
// split and the portable tail.

// kernelCase names one dispatched kernel and its portable oracle, each
// applied to the same operand rows: dsts are modified in place, srcs are
// read, cs are coefficients.
type kernelCase struct {
	name             string
	dsts, srcs, cs   int
	dispatched, port func(d, s [][]byte, c []byte)
}

var kernelCases = []kernelCase{
	{"MulAddSlice", 1, 1, 1,
		func(d, s [][]byte, c []byte) { MulAddSlice(d[0], s[0], c[0]) },
		func(d, s [][]byte, c []byte) { mulAddTable(d[0], s[0], c[0]) }},
	{"MulSlice", 1, 1, 1,
		func(d, s [][]byte, c []byte) { MulSlice(d[0], s[0], c[0]) },
		func(d, s [][]byte, c []byte) { mulTable(d[0], s[0], c[0]) }},
	{"ScaleSlice", 1, 0, 1,
		func(d, _ [][]byte, c []byte) { ScaleSlice(d[0], c[0]) },
		func(d, _ [][]byte, c []byte) { mulTable(d[0], d[0], c[0]) }},
	{"MulAddSlice2", 1, 2, 2,
		func(d, s [][]byte, c []byte) { MulAddSlice2(d[0], s[0], s[1], c[0], c[1]) },
		func(d, s [][]byte, c []byte) { mulAdd2Table(d[0], s[0], s[1], c[0], c[1]) }},
	{"MulAddSlice4", 1, 4, 4,
		func(d, s [][]byte, c []byte) { MulAddSlice4(d[0], s[0], s[1], s[2], s[3], c[0], c[1], c[2], c[3]) },
		func(d, s [][]byte, c []byte) { mulAdd4Table(d[0], s[0], s[1], s[2], s[3], c[0], c[1], c[2], c[3]) }},
	{"MulAddSlice1x2", 2, 1, 2,
		func(d, s [][]byte, c []byte) { MulAddSlice1x2(d[0], d[1], s[0], c[0], c[1]) },
		func(d, s [][]byte, c []byte) { mulAdd1x2Table(d[0], d[1], s[0], c[0], c[1]) }},
	{"MulAddSlice4x2", 2, 4, 8,
		func(d, s [][]byte, c []byte) {
			MulAddSlice4x2(d[0], d[1], s[0], s[1], s[2], s[3], [4]byte(c[:4]), [4]byte(c[4:]))
		},
		func(d, s [][]byte, c []byte) {
			mulAdd4x2Table(d[0], d[1], s[0], s[1], s[2], s[3], [4]byte(c[:4]), [4]byte(c[4:]))
		}},
	{"XorSlice", 1, 1, 0,
		func(d, s [][]byte, _ []byte) { XorSlice(d[0], s[0]) },
		func(d, s [][]byte, _ []byte) { xorWords(d[0], s[0]) }},
	{"XorSlice4", 1, 4, 0,
		func(d, s [][]byte, _ []byte) { XorSlice4(d[0], s[0], s[1], s[2], s[3]) },
		func(d, s [][]byte, _ []byte) { xor4Words(d[0], s[0], s[1], s[2], s[3]) }},
}

// guard is the byte every backing array is filled with past its row.
const guard = 0xC5

// rowAt returns an n-byte row at offset off into buf (which must hold
// off+n+32 bytes), filled from rng, with every other byte of buf set to
// guard.
func rowAt(rng *rand.Rand, buf []byte, off, n int) []byte {
	for i := range buf {
		buf[i] = guard
	}
	row := buf[off : off+n]
	rng.Read(row)
	return row
}

// checkKernel runs kc once on rows of length n at the given dst and src
// offsets with coefficients cs, and fails on any difference from the
// portable oracle, in the rows or in the guard bytes around them.
func checkKernel(t *testing.T, rng *rand.Rand, kc kernelCase, n, dstOff, srcOff int, cs []byte) {
	t.Helper()
	size := 32 + n + 32
	got := make([][]byte, kc.dsts)
	want := make([][]byte, kc.dsts)
	gotBufs := make([][]byte, kc.dsts)
	wantBufs := make([][]byte, kc.dsts)
	for i := range got {
		gotBufs[i] = make([]byte, size)
		got[i] = rowAt(rng, gotBufs[i], dstOff, n)
		wantBufs[i] = append([]byte(nil), gotBufs[i]...)
		want[i] = wantBufs[i][dstOff : dstOff+n]
	}
	srcs := make([][]byte, kc.srcs)
	for i := range srcs {
		srcs[i] = rowAt(rng, make([]byte, size), srcOff, n)
	}
	kc.dispatched(got, srcs, cs)
	kc.port(want, srcs, cs)
	for i := range got {
		if !bytes.Equal(gotBufs[i], wantBufs[i]) {
			j := 0
			for gotBufs[i][j] == wantBufs[i][j] {
				j++
			}
			t.Fatalf("%s n=%d dstOff=%d srcOff=%d cs=%x: dst %d differs at buffer byte %d (row byte %d): got %#x want %#x",
				kc.name, n, dstOff, srcOff, cs, i, j, j-dstOff, gotBufs[i][j], wantBufs[i][j])
		}
	}
}

// drawCoeffs fills cs from rng, forcing a 0 or a 1 now and then so the
// shortcut and zero-compaction paths run too.
func drawCoeffs(rng *rand.Rand, cs []byte) {
	for i := range cs {
		switch r := rng.Intn(16); r {
		case 0:
			cs[i] = 0
		case 1:
			cs[i] = 1
		default:
			cs[i] = byte(2 + rng.Intn(254))
		}
	}
}

func TestDispatchedKernelsMatchPortable(t *testing.T) {
	lengths := make([]int, 0, 302)
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4096)
	for _, kc := range kernelCases {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(60))
			cs := make([]byte, kc.cs)
			for off := 0; off < 32; off++ {
				for _, n := range lengths {
					drawCoeffs(rng, cs)
					// Every dst offset meets every src offset across the
					// lengths of one offset pass.
					checkKernel(t, rng, kc, n, off, (off+n)%32, cs)
				}
			}
		})
	}
}

// TestSingleSourceKernelsEveryCoefficient drives the 1-source kernels through
// all 256 coefficients: one nibble table each.
func TestSingleSourceKernelsEveryCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, kc := range kernelCases[:3] {
		for c := 0; c < 256; c++ {
			for _, n := range []int{32, 63, 100, 4096} {
				checkKernel(t, rng, kc, n, c%32, (c*7)%32, []byte{byte(c)})
			}
		}
	}
}

// FuzzMulAddKernels drives every dispatched kernel with fuzzer-chosen
// content, length, row offsets and coefficients against its portable body.
func FuzzMulAddKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint64(0))
	f.Add([]byte{1, 2, 3}, uint8(1), uint8(31), uint64(0x0102030405060708))
	f.Add(bytes.Repeat([]byte{0xA7, 0x1D}, 70), uint8(5), uint8(17), uint64(0xFFFE0100A71D53CA))
	f.Add(make([]byte, 300), uint8(31), uint8(0), uint64(0x8040201008040201))
	f.Fuzz(func(t *testing.T, seed []byte, dstOff, srcOff uint8, coeffs uint64) {
		var s int64
		for _, b := range seed {
			s = s*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(s))
		var cs [8]byte
		for i := range cs {
			cs[i] = byte(coeffs >> (8 * i))
		}
		n := len(seed)
		for _, kc := range kernelCases {
			checkKernel(t, rng, kc, n, int(dstOff%32), int(srcOff%32), cs[:kc.cs])
		}
	})
}

// TestKernelsDoNotAllocate pins every dispatched kernel at zero allocations,
// on a vector-sized row and on one with a portable tail.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{37, 4096} {
		d := [][]byte{randomBytes(rng, n), randomBytes(rng, n)}
		s := [][]byte{randomBytes(rng, n), randomBytes(rng, n), randomBytes(rng, n), randomBytes(rng, n)}
		cs := []byte{0xA7, 0x1D, 0x53, 0xCA, 0x29, 0x77, 0xFE, 0x02}
		for _, kc := range kernelCases {
			if a := testing.AllocsPerRun(50, func() { kc.dispatched(d, s, cs[:kc.cs]) }); a != 0 {
				t.Errorf("%s n=%d: %v allocs per call, want 0", kc.name, n, a)
			}
		}
		out := make([]byte, n)
		rows := [][]byte{s[0], s[1], s[2], s[3], s[0], s[1]}
		if a := testing.AllocsPerRun(50, func() { DotProduct(out, cs[:6], rows) }); a != 0 {
			t.Errorf("DotProduct n=%d: %v allocs per call, want 0", n, a)
		}
	}
}
