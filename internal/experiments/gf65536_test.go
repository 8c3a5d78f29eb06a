package experiments

// Arithmetic over GF(2^16), kept as test-only code — the granularity
// ablation behind the paper's Sec. 4.1 design rationale: "table-based
// GF(2^8) multiplication is not easily scalable to a higher granularity
// than the byte level". At 16-bit symbols the log/exp tables occupy
// 4·65536 = 256 KiB (plus a doubled exp table), two orders of magnitude
// beyond a Tesla SM's 16 KiB shared memory and far past L1 on the CPUs of
// the era — so the table-based schemes that win at byte granularity cannot
// even stage their tables. The upside this file lets one measure is the
// far lower linear-dependence probability of random coefficients (≈2⁻¹⁶
// per draw instead of ≈2⁻⁸).

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"extremenc/internal/gf256"
)

// gf16Poly is a primitive polynomial for GF(2^16): x^16+x^12+x^3+x+1.
const gf16Poly = 0x1100B

// gf16Order is the multiplicative group order.
const gf16Order = 1<<16 - 1

// gf16TableBytes is the memory footprint of the log table plus the doubled exp
// table at this granularity — the number that sinks GPU table schemes.
const gf16TableBytes = 2*(1<<16)*2 + 2*2*gf16Order // log (128 KiB) + exp doubled (~256 KiB)

type gf16Tables struct {
	generator uint16
	exp       []uint16 // doubled: exp[i] = g^i for i in [0, 2·gf16Order)
	log       []uint32 // log[x] for x != 0; log[0] = gf16LogZero sentinel
}

// gf16LogZero is the sentinel logarithm for 0.
const gf16LogZero = 1 << 30

var gf16Field = gf16BuildTables()

// gf16BuildTables finds the smallest primitive generator under gf16Poly and builds
// the tables. Primitivity is verified by construction: the generator must
// visit every non-zero element exactly once.
func gf16BuildTables() *gf16Tables {
	for g := uint16(2); ; g++ {
		t, ok := gf16TryGenerator(g)
		if ok {
			return t
		}
		if g > 64 {
			panic(fmt.Sprintf("gf65536: no primitive generator below 64 for poly %#x", gf16Poly))
		}
	}
}

func gf16TryGenerator(g uint16) (*gf16Tables, bool) {
	t := &gf16Tables{
		generator: g,
		exp:       make([]uint16, 2*gf16Order),
		log:       make([]uint32, 1<<16),
	}
	for i := range t.log {
		t.log[i] = gf16LogZero
	}
	x := uint16(1)
	for i := 0; i < gf16Order; i++ {
		if t.log[x] != gf16LogZero {
			return nil, false // cycled early: g is not primitive
		}
		t.exp[i] = x
		t.exp[i+gf16Order] = x
		t.log[x] = uint32(i)
		x = gf16MulSlow(x, g)
	}
	if x != 1 {
		return nil, false
	}
	return t, true
}

// gf16Generator returns the primitive element the tables use.
func gf16Generator() uint16 { return gf16Field.generator }

// gf16MulSlow is the reference carry-less multiply with reduction by gf16Poly.
func gf16MulSlow(a, b uint16) uint16 {
	var p uint32
	aa, bb := uint32(a), uint32(b)
	for i := 0; i < 16; i++ {
		if bb&1 != 0 {
			p ^= aa
		}
		bb >>= 1
		aa <<= 1
		if aa&0x10000 != 0 {
			aa ^= gf16Poly
		}
	}
	return uint16(p)
}

// gf16Add returns a + b (XOR).
func gf16Add(a, b uint16) uint16 { return a ^ b }

// gf16Mul returns a·b via the log/exp tables.
func gf16Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return gf16Field.exp[gf16Field.log[a]+gf16Field.log[b]]
}

// gf16MulLoop returns a·b via the loop-based multiply (16 iterations max).
func gf16MulLoop(a, b uint16) uint16 { return gf16MulSlow(a, b) }

// gf16Inv returns the multiplicative inverse of a (gf16Inv(0) = 0).
func gf16Inv(a uint16) uint16 {
	if a == 0 {
		return 0
	}
	return gf16Field.exp[gf16Order-gf16Field.log[a]]
}

// gf16Div returns a/b (0 when b is 0).
func gf16Div(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return gf16Field.exp[gf16Field.log[a]+uint32(gf16Order)-gf16Field.log[b]]
}

// gf16MulAddSlice computes dst[i] ^= c·src[i] over 16-bit symbols — the row
// operation at symbol granularity.
func gf16MulAddSlice(dst, src []uint16, c uint16) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range src {
			dst[i] ^= src[i]
		}
		return
	}
	lc := gf16Field.log[c]
	exp, log := gf16Field.exp, gf16Field.log
	for i, s := range src {
		if s != 0 {
			dst[i] ^= exp[lc+log[s]]
		}
	}
}

// gf16ScaleSlice computes dst[i] = c·dst[i] in place.
func gf16ScaleSlice(dst []uint16, c uint16) {
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		return
	}
	lc := gf16Field.log[c]
	exp, log := gf16Field.exp, gf16Field.log
	for i, v := range dst {
		if v != 0 {
			dst[i] = exp[lc+log[v]]
		}
	}
}

// gf16Rank returns the rank of an r×c matrix over GF(2^16) stored as row
// slices, via in-place Gaussian elimination on a copy. It backs the
// dependence-probability comparison against GF(2^8).
func gf16Rank(rows [][]uint16) int {
	if len(rows) == 0 {
		return 0
	}
	work := make([][]uint16, len(rows))
	for i, r := range rows {
		work[i] = append([]uint16(nil), r...)
	}
	cols := len(work[0])
	rank := 0
	for col := 0; col < cols && rank < len(work); col++ {
		pivot := -1
		for r := rank; r < len(work); r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[pivot], work[rank] = work[rank], work[pivot]
		prow := work[rank]
		if pv := prow[col]; pv != 1 {
			gf16ScaleSlice(prow, gf16Inv(pv))
		}
		for r := 0; r < len(work); r++ {
			if r == rank {
				continue
			}
			if f := work[r][col]; f != 0 {
				gf16MulAddSlice(work[r], prow, f)
			}
		}
		rank++
	}
	return rank
}

func TestGeneratorIsPrimitive(t *testing.T) {
	// gf16BuildTables only returns a verified generator; re-check its order.
	g := gf16Generator()
	if g < 2 {
		t.Fatalf("generator = %d", g)
	}
	x := uint16(1)
	for i := 0; i < gf16Order; i++ {
		x = gf16MulSlow(x, g)
		if x == 1 && i != gf16Order-1 {
			t.Fatalf("generator order divides %d", i+1)
		}
	}
	if x != 1 {
		t.Fatal("generator order is not 65535")
	}
}

func TestMulAgreesWithLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		a, b := uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
		if got, want := gf16Mul(a, b), gf16MulLoop(a, b); got != want {
			t.Fatalf("gf16Mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	t.Run("commutativity", func(t *testing.T) {
		if err := quick.Check(func(a, b uint16) bool { return gf16Mul(a, b) == gf16Mul(b, a) }, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("associativity", func(t *testing.T) {
		f := func(a, b, c uint16) bool { return gf16Mul(gf16Mul(a, b), c) == gf16Mul(a, gf16Mul(b, c)) }
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributivity", func(t *testing.T) {
		f := func(a, b, c uint16) bool { return gf16Mul(a, gf16Add(b, c)) == gf16Add(gf16Mul(a, b), gf16Mul(a, c)) }
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("inverse", func(t *testing.T) {
		f := func(a uint16) bool {
			if a == 0 {
				return gf16Inv(0) == 0
			}
			return gf16Mul(a, gf16Inv(a)) == 1
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("division", func(t *testing.T) {
		f := func(a, b uint16) bool {
			if b == 0 {
				return gf16Div(a, b) == 0
			}
			return gf16Mul(gf16Div(a, b), b) == a
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestMulAddAndScaleSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]uint16, 301)
	dst := make([]uint16, 301)
	for i := range src {
		src[i] = uint16(rng.Intn(1 << 16))
		dst[i] = uint16(rng.Intn(1 << 16))
	}
	for _, c := range []uint16{0, 1, 0x1234, 0xFFFF} {
		want := append([]uint16(nil), dst...)
		for i := range want {
			want[i] ^= gf16MulLoop(c, src[i])
		}
		got := append([]uint16(nil), dst...)
		gf16MulAddSlice(got, src, c)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gf16MulAddSlice c=%#x at %d", c, i)
			}
		}
		scaled := append([]uint16(nil), src...)
		gf16ScaleSlice(scaled, c)
		for i := range scaled {
			if scaled[i] != gf16MulLoop(c, src[i]) {
				t.Fatalf("gf16ScaleSlice c=%#x at %d", c, i)
			}
		}
	}
}

func TestRank(t *testing.T) {
	id := [][]uint16{{1, 0}, {0, 1}}
	if gf16Rank(id) != 2 {
		t.Fatal("identity rank")
	}
	dep := [][]uint16{{2, 4}, {gf16Mul(2, 7), gf16Mul(4, 7)}} // scaled row
	if gf16Rank(dep) != 1 {
		t.Fatal("dependent rows rank")
	}
	if gf16Rank(nil) != 0 || gf16Rank([][]uint16{{0, 0}}) != 0 {
		t.Fatal("degenerate ranks")
	}
}

// TestDependenceProbabilityVsGF256 quantifies the symbol-width trade: a
// random 4×4 coefficient matrix over GF(2^8) is singular ≈0.4% of the time
// (≈q⁻¹), over GF(2^16) ≈0.0015% — the upside the paper forgoes because
// the tables stop fitting on-chip (Sec. 4.1).
func TestDependenceProbabilityVsGF256(t *testing.T) {
	const trials, n = 30000, 4
	rng := rand.New(rand.NewSource(3))

	singular8 := 0
	for trial := 0; trial < trials; trial++ {
		rows := make([][]uint16, n)
		for i := range rows {
			rows[i] = make([]uint16, n)
			for j := range rows[i] {
				rows[i][j] = uint16(rng.Intn(256)) // byte symbols via GF(2^8) mul below
			}
		}
		// GF(2^8) rank with byte arithmetic.
		if rank8(rows) < n {
			singular8++
		}
	}
	singular16 := 0
	for trial := 0; trial < trials; trial++ {
		rows := make([][]uint16, n)
		for i := range rows {
			rows[i] = make([]uint16, n)
			for j := range rows[i] {
				rows[i][j] = uint16(rng.Intn(1 << 16))
			}
		}
		if gf16Rank(rows) < n {
			singular16++
		}
	}
	// GF(2^8): expected ≈ trials × (1 − Π(1−q^{-i})) ≈ trials/255 ≈ 118.
	if singular8 < 70 || singular8 > 180 {
		t.Errorf("GF(2^8) singular count = %d of %d, want ≈118", singular8, trials)
	}
	// GF(2^16): expected ≈ trials × 1.5e-5 ≈ 0.46 — almost never.
	if singular16 > 10 {
		t.Errorf("GF(2^16) singular count = %d of %d, want ≈0", singular16, trials)
	}
	if singular16 >= singular8 {
		t.Error("wider symbols should reduce dependence probability")
	}
}

// rank8 computes rank over GF(2^8) for byte-valued matrices.
func rank8(rows [][]uint16) int {
	work := make([][]byte, len(rows))
	for i, r := range rows {
		work[i] = make([]byte, len(r))
		for j, v := range r {
			work[i][j] = byte(v)
		}
	}
	cols := len(work[0])
	rank := 0
	for col := 0; col < cols && rank < len(work); col++ {
		pivot := -1
		for r := rank; r < len(work); r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[pivot], work[rank] = work[rank], work[pivot]
		prow := work[rank]
		inv := gf256.Inv(prow[col])
		gf256.ScaleSlice(prow, inv)
		for r := 0; r < len(work); r++ {
			if r != rank && work[r][col] != 0 {
				gf256.MulAddSlice(work[r], prow, work[r][col])
			}
		}
		rank++
	}
	return rank
}

// TestTableFootprint pins the Sec. 4.1 rationale: GF(2^16) tables cannot
// fit a Tesla SM's 16 KiB shared memory, while GF(2^8)'s fit many times
// over.
func TestTableFootprint(t *testing.T) {
	const sharedMem = 16 << 10
	if gf16TableBytes <= sharedMem {
		t.Fatalf("GF(2^16) gf16Tables (%d B) should dwarf shared memory (%d B)", gf16TableBytes, sharedMem)
	}
	const gf256Tables = 256 + 512 // log + doubled exp, bytes
	if gf256Tables > sharedMem/16 {
		t.Fatalf("GF(2^8) gf16Tables (%d B) should fit shared memory many times over", gf256Tables)
	}
	if gf16TableBytes/gf256Tables < 400 {
		t.Fatalf("granularity blow-up = %dx, expected ≫ 400x", gf16TableBytes/gf256Tables)
	}
}

// BenchmarkGranularity compares row-operation throughput per byte at the
// two symbol widths on this machine.
func BenchmarkGranularity(b *testing.B) {
	const bytes = 8192
	rng := rand.New(rand.NewSource(4))

	src8 := make([]byte, bytes)
	dst8 := make([]byte, bytes)
	rng.Read(src8)
	rng.Read(dst8)
	b.Run("gf256", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			gf256.MulAddSlice(dst8, src8, 0xA7)
		}
	})

	src16 := make([]uint16, bytes/2)
	dst16 := make([]uint16, bytes/2)
	for i := range src16 {
		src16[i] = uint16(rng.Intn(1 << 16))
		dst16[i] = uint16(rng.Intn(1 << 16))
	}
	b.Run("gf65536", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			gf16MulAddSlice(dst16, src16, 0xA7B3)
		}
	})
}
