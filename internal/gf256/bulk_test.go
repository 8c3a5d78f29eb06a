package gf256

import (
	"fmt"
	"math/rand"
	"testing"
)

// Ladder-only baselines. Production code has one MulAddSlice; these pin a
// single portable strategy so tests and BenchmarkMulAddStrategies can
// compare the strategies directly.

// MulAddSliceLoop is the always-bit-sliced variant.
func MulAddSliceLoop(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		xorWords(dst, src)
		return
	}
	mulAddBitSliced(dst, src, c)
}

// MulAddSliceTable is the always-table-row variant.
func MulAddSliceTable(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		xorWords(dst, src)
		return
	}
	mulAddTable(dst, src, c)
}

// mulAddTableScalar is the pre-wide-word rung — one dst read-modify-write
// per table lookup. Kept so BenchmarkMulAddLadder can measure the wide
// gather against the exact kernel it replaced.
func mulAddTableScalar(dst, src []byte, c byte) {
	row := &_tables.mul[c]
	n := len(src)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] ^= row[src[i]]
		dst[i+1] ^= row[src[i+1]]
		dst[i+2] ^= row[src[i+2]]
		dst[i+3] ^= row[src[i+3]]
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// Differential coverage for the wide-word kernels: every new path is pinned
// against the mulSlow reference over lengths 0–257 so both the 8-byte main
// loops and every odd tail shape are exercised.

func TestMulAddTableWideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	coeffs := []byte{2, 3, 0x53, 0x80, 0xA7, 0xFF}
	for n := 0; n <= 257; n++ {
		src := randomBytes(rng, n)
		base := randomBytes(rng, n)
		for _, c := range coeffs {
			want := append([]byte(nil), base...)
			for i := range want {
				want[i] ^= mulSlow(src[i], c)
			}
			got := append([]byte(nil), base...)
			mulAddTable(got, src, c)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mulAddTable len %d c %#x mismatch at %d: got %#x want %#x",
						n, c, i, got[i], want[i])
				}
			}
			// The scalar rung must stay equivalent (it anchors the ladder).
			scalar := append([]byte(nil), base...)
			mulAddTableScalar(scalar, src, c)
			for i := range want {
				if scalar[i] != want[i] {
					t.Fatalf("mulAddTableScalar len %d c %#x mismatch at %d", n, c, i)
				}
			}
		}
	}
}

func TestMulAddSlice2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	coeffPairs := [][2]byte{{2, 3}, {0, 0x57}, {0x57, 0}, {1, 0xFF}, {0xA7, 0x1D}, {0, 0}}
	for n := 0; n <= 257; n++ {
		s1 := randomBytes(rng, n)
		s2 := randomBytes(rng, n)
		base := randomBytes(rng, n)
		for _, cp := range coeffPairs {
			c1, c2 := cp[0], cp[1]
			want := append([]byte(nil), base...)
			for i := range want {
				want[i] ^= mulSlow(s1[i], c1) ^ mulSlow(s2[i], c2)
			}
			got := append([]byte(nil), base...)
			MulAddSlice2(got, s1, s2, c1, c2)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MulAddSlice2 len %d c=(%#x,%#x) mismatch at %d: got %#x want %#x",
						n, c1, c2, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulAddSlice4MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	coeffSets := [][4]byte{
		{2, 3, 4, 5},
		{0, 1, 0xFF, 0x80},
		{0x57, 0, 0, 0x13},
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{0xA7, 0x1D, 0x53, 0xCA},
		{0, 0, 0, 0x29},
	}
	for n := 0; n <= 257; n++ {
		s1 := randomBytes(rng, n)
		s2 := randomBytes(rng, n)
		s3 := randomBytes(rng, n)
		s4 := randomBytes(rng, n)
		base := randomBytes(rng, n)
		for _, cs := range coeffSets {
			want := append([]byte(nil), base...)
			for i := range want {
				want[i] ^= mulSlow(s1[i], cs[0]) ^ mulSlow(s2[i], cs[1]) ^
					mulSlow(s3[i], cs[2]) ^ mulSlow(s4[i], cs[3])
			}
			got := append([]byte(nil), base...)
			MulAddSlice4(got, s1, s2, s3, s4, cs[0], cs[1], cs[2], cs[3])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MulAddSlice4 len %d cs=%v mismatch at %d: got %#x want %#x",
						n, cs, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulAddSlice1x2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	coeffPairs := [][2]byte{{2, 3}, {0, 0x57}, {0x57, 0}, {1, 0xFF}, {0xA7, 0x1D}, {0, 0}, {1, 1}}
	for n := 0; n <= 257; n++ {
		src := randomBytes(rng, n)
		base1 := randomBytes(rng, n)
		base2 := randomBytes(rng, n)
		for _, cp := range coeffPairs {
			c1, c2 := cp[0], cp[1]
			want1 := append([]byte(nil), base1...)
			want2 := append([]byte(nil), base2...)
			for i := range want1 {
				want1[i] ^= mulSlow(src[i], c1)
				want2[i] ^= mulSlow(src[i], c2)
			}
			got1 := append([]byte(nil), base1...)
			got2 := append([]byte(nil), base2...)
			MulAddSlice1x2(got1, got2, src, c1, c2)
			for i := range want1 {
				if got1[i] != want1[i] {
					t.Fatalf("MulAddSlice1x2 len %d c=(%#x,%#x) d1 mismatch at %d: got %#x want %#x",
						n, c1, c2, i, got1[i], want1[i])
				}
				if got2[i] != want2[i] {
					t.Fatalf("MulAddSlice1x2 len %d c=(%#x,%#x) d2 mismatch at %d: got %#x want %#x",
						n, c1, c2, i, got2[i], want2[i])
				}
			}
		}
	}
}

func TestMulAddSlice4x2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	coeffSets := [][2][4]byte{
		{{2, 3, 4, 5}, {6, 7, 8, 9}},
		{{0xA7, 0x1D, 0x53, 0xCA}, {0x29, 0x77, 0xFE, 0x02}},
		{{1, 1, 1, 1}, {0xFF, 0x80, 0x40, 0x20}},
		{{0, 3, 4, 5}, {6, 7, 8, 9}}, // zero in first set → fallback path
		{{2, 3, 4, 5}, {6, 0, 8, 9}}, // zero in second set
		{{0, 0, 0, 0}, {0, 0, 0, 0}}, // fully zero
		{{1, 0, 0xFF, 0}, {0, 0x57, 0, 1}},
	}
	for n := 0; n <= 257; n++ {
		s1 := randomBytes(rng, n)
		s2 := randomBytes(rng, n)
		s3 := randomBytes(rng, n)
		s4 := randomBytes(rng, n)
		base1 := randomBytes(rng, n)
		base2 := randomBytes(rng, n)
		for _, cs := range coeffSets {
			ca, cb := cs[0], cs[1]
			want1 := append([]byte(nil), base1...)
			want2 := append([]byte(nil), base2...)
			for i := range want1 {
				want1[i] ^= mulSlow(s1[i], ca[0]) ^ mulSlow(s2[i], ca[1]) ^
					mulSlow(s3[i], ca[2]) ^ mulSlow(s4[i], ca[3])
				want2[i] ^= mulSlow(s1[i], cb[0]) ^ mulSlow(s2[i], cb[1]) ^
					mulSlow(s3[i], cb[2]) ^ mulSlow(s4[i], cb[3])
			}
			got1 := append([]byte(nil), base1...)
			got2 := append([]byte(nil), base2...)
			MulAddSlice4x2(got1, got2, s1, s2, s3, s4, ca, cb)
			for i := range want1 {
				if got1[i] != want1[i] {
					t.Fatalf("MulAddSlice4x2 len %d ca=%v d1 mismatch at %d: got %#x want %#x",
						n, ca, i, got1[i], want1[i])
				}
				if got2[i] != want2[i] {
					t.Fatalf("MulAddSlice4x2 len %d cb=%v d2 mismatch at %d: got %#x want %#x",
						n, cb, i, got2[i], want2[i])
				}
			}
		}
	}
}

// TestMulAddAliasedDst pins the dst==src aliasing contract: c·x ^ x is the
// per-byte result (x + c·x = (c+1)·x in the field).
func TestMulAddAliasedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 129, 257} {
		for _, c := range []byte{0, 1, 2, 0xA7, 0xFF} {
			orig := randomBytes(rng, n)
			want := make([]byte, n)
			for i := range want {
				want[i] = orig[i] ^ mulSlow(orig[i], c)
			}
			got := append([]byte(nil), orig...)
			MulAddSlice(got, got, c)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("aliased MulAddSlice len %d c %#x mismatch at %d", n, c, i)
				}
			}
		}
		// Fused kernels with every source aliased to dst:
		// dst ^= (c1+c2+c3+c4)·dst.
		orig := randomBytes(rng, n)
		c1, c2, c3, c4 := byte(2), byte(3), byte(0x10), byte(0x80)
		want := make([]byte, n)
		for i := range want {
			want[i] = orig[i] ^ mulSlow(orig[i], c1^c2^c3^c4)
		}
		got := append([]byte(nil), orig...)
		MulAddSlice4(got, got, got, got, got, c1, c2, c3, c4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("aliased MulAddSlice4 len %d mismatch at %d", n, i)
			}
		}
	}
}

func TestAddSliceOddTails(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n <= 257; n++ {
		a := randomBytes(rng, n)
		b := randomBytes(rng, n)
		got := append([]byte(nil), a...)
		AddSlice(got, b)
		for i := range got {
			if got[i] != a[i]^b[i] {
				t.Fatalf("AddSlice len %d mismatch at %d", n, i)
			}
		}
		// Self-add must zero the row.
		self := append([]byte(nil), a...)
		AddSlice(self, self)
		for i := range self {
			if self[i] != 0 {
				t.Fatalf("AddSlice self len %d not zero at %d", n, i)
			}
		}
	}
}

func TestDotProductFusedTails(t *testing.T) {
	// Row counts around the 4/2/1 grouping boundaries, including zero
	// coefficients that must be skipped.
	rng := rand.New(rand.NewSource(15))
	const k = 131
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17} {
		rows := make([][]byte, n)
		for i := range rows {
			rows[i] = randomBytes(rng, k)
		}
		coeffs := randomBytes(rng, n)
		if n > 2 {
			coeffs[1] = 0 // force a zero inside a fused group
		}
		out := make([]byte, k)
		DotProduct(out, coeffs, rows)
		for j := 0; j < k; j++ {
			var want byte
			for i := 0; i < n; i++ {
				want ^= mulSlow(coeffs[i], rows[i][j])
			}
			if out[j] != want {
				t.Fatalf("DotProduct n=%d col %d: got %#x want %#x", n, j, out[j], want)
			}
		}
	}
}

// BenchmarkMulAddLadder measures every rung of the host kernel ladder at the
// paper's reference block size (k=4096) and around the dispatch threshold.
// Fused rungs report throughput in source bytes processed per second, so the
// MB/s column is directly comparable across rungs. The portable rungs call
// the portable kernels directly, so their committed numbers stay comparable
// on any host; the simd rungs call the exported, dispatched kernels (the
// AVX2 rung where the CPU has it, the portable path elsewhere).
func BenchmarkMulAddLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{16, 64, 1024, 4096} {
		s1 := randomBytes(rng, k)
		s2 := randomBytes(rng, k)
		s3 := randomBytes(rng, k)
		s4 := randomBytes(rng, k)
		dst := randomBytes(rng, k)
		b.Run(fmt.Sprintf("bitsliced/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				mulAddBitSliced(dst, s1, 0xA7)
			}
		})
		b.Run(fmt.Sprintf("table-scalar/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				mulAddTableScalar(dst, s1, 0xA7)
			}
		})
		b.Run(fmt.Sprintf("table-wide/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				mulAddTable(dst, s1, 0xA7)
			}
		})
		dst1x2 := randomBytes(rng, k)
		b.Run(fmt.Sprintf("fused1x2/k=%d", k), func(b *testing.B) {
			// Two source·destination lanes per call (one source row feeding
			// two rows under elimination — the Gauss–Jordan shape).
			b.SetBytes(int64(2 * k))
			for i := 0; i < b.N; i++ {
				mulAdd1x2Table(dst, dst1x2, s1, 0xA7, 0x1D)
			}
		})
		b.Run(fmt.Sprintf("fused2/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(2 * k))
			for i := 0; i < b.N; i++ {
				mulAdd2Table(dst, s1, s2, 0xA7, 0x1D)
			}
		})
		b.Run(fmt.Sprintf("fused4/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(4 * k))
			for i := 0; i < b.N; i++ {
				mulAdd4Table(dst, s1, s2, s3, s4, 0xA7, 0x1D, 0x53, 0xCA)
			}
		})
		dst2 := randomBytes(rng, k)
		b.Run(fmt.Sprintf("fused4x2/k=%d", k), func(b *testing.B) {
			// Eight source·destination lanes per call.
			b.SetBytes(int64(8 * k))
			for i := 0; i < b.N; i++ {
				mulAdd4x2Table(dst, dst2, s1, s2, s3, s4,
					[4]byte{0xA7, 0x1D, 0x53, 0xCA}, [4]byte{0x29, 0x77, 0xFE, 0x02})
			}
		})
		b.Run(fmt.Sprintf("simd1/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				MulAddSlice(dst, s1, 0xA7)
			}
		})
		b.Run(fmt.Sprintf("simd4/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(4 * k))
			for i := 0; i < b.N; i++ {
				MulAddSlice4(dst, s1, s2, s3, s4, 0xA7, 0x1D, 0x53, 0xCA)
			}
		})
		b.Run(fmt.Sprintf("simd4x2/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(8 * k))
			for i := 0; i < b.N; i++ {
				MulAddSlice4x2(dst, dst2, s1, s2, s3, s4,
					[4]byte{0xA7, 0x1D, 0x53, 0xCA}, [4]byte{0x29, 0x77, 0xFE, 0x02})
			}
		})
	}
}
