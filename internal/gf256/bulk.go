package gf256

import "encoding/binary"

// Bulk row operations. These are the host codec's hot path: every encode,
// recode and Gauss–Jordan row operation reduces to dst ⊕= c·src over k-byte
// rows. Mirroring the paper's TB-0…5 ladder (Sec. 4.2), the package keeps a
// measured progression of kernels:
//
//   - a loop-based, bit-sliced form that processes 8 byte-lanes per uint64
//     (the SSE2/AltiVec analogue from the authors' IWQoS'07 work),
//   - a scalar table-row form that indexes the 256-entry product row of the
//     coefficient one byte at a time (kept as the ladder baseline),
//   - a wide table-row form that gathers 8 products per 64-bit destination
//     word, so each dst word is loaded and stored exactly once, and
//   - fused 2- and 4-source kernels (MulAddSlice2 / MulAddSlice4) that apply
//     several coefficient·source pairs per destination pass — the host
//     analogue of the paper's register-blocked accumulation, and
//   - on amd64 hosts with AVX2, VPSHUFB nibble-table kernels (simd_amd64.s)
//     that multiply 32 bytes per instruction pair — the SSE2 baseline of the
//     paper's CPU comparison, one register width up.
//
// Each exported kernel takes its 0/1 coefficient shortcuts, runs the vector
// kernel over the longest 32-byte-multiple prefix it can (none without
// AVX2), and finishes the tail with the portable kernel. The portable
// kernels are whole-row functions of their own: the fallback on every other
// host, and the oracle the differential tests hold the vector rung to.
// MulAddSlice picks a portable strategy by row length; BenchmarkMulAddLadder
// exercises every rung directly.

const (
	loMask  = 0x7f7f7f7f7f7f7f7f
	hiMask  = 0x8080808080808080
	polyRed = 0x1b // Poly's low byte, the per-lane reduction constant

	// tableRowThreshold is the row length above which loading the 256-entry
	// product row beats bit-sliced math. Recalibrated with
	// BenchmarkMulAddLadder after the table path went wide-word: the wide
	// gather amortizes the row-load cost much earlier than the old scalar
	// path did (the previous threshold was 64).
	tableRowThreshold = 16
)

// xtimes8 multiplies each of the 8 byte-lanes of v by x (i.e. by 0x02) in
// Rijndael's field.
func xtimes8(v uint64) uint64 {
	hi := v & hiMask
	return ((v &^ hiMask) << 1) ^ ((hi >> 7) * polyRed)
}

// mulLanes multiplies each byte-lane of v by the scalar coefficient c using
// the loop-based algorithm: at most 8 shift/test/xor iterations.
func mulLanes(v uint64, c byte) uint64 {
	var acc uint64
	for c != 0 {
		if c&1 != 0 {
			acc ^= v
		}
		c >>= 1
		v = xtimes8(v)
	}
	return acc
}

// AddSlice computes dst[i] ^= src[i] for every i. len(src) must not exceed
// len(dst). Rows may not partially alias (identical slices are fine and
// zero the row). GF(2^8) addition is XOR, so this is XorSlice under the
// field-arithmetic name the GF(2^8) kernels use.
func AddSlice(dst, src []byte) {
	XorSlice(dst, src)
}

// XorSlice computes dst[i] ^= src[i] for every i — the pure GF(2) row
// operation of the systematic/XOR fast path. It needs no log/exp or product
// tables. len(src) must not exceed len(dst); rows may not partially alias
// (identical slices are fine and zero the row).
func XorSlice(dst, src []byte) {
	i := xorVec(dst, src)
	xorWords(dst[i:], src[i:])
}

// xorWords is the portable XorSlice: four 64-bit words per iteration, with
// 8-byte and scalar tails.
func xorWords(dst, src []byte) {
	n := len(src)
	dst = dst[:n] // equal lengths: the first in-loop bounds check proves away the rest
	i := 0
	for ; i+32 <= n; i += 32 {
		d0 := binary.LittleEndian.Uint64(dst[i:])
		d1 := binary.LittleEndian.Uint64(dst[i+8:])
		d2 := binary.LittleEndian.Uint64(dst[i+16:])
		d3 := binary.LittleEndian.Uint64(dst[i+24:])
		binary.LittleEndian.PutUint64(dst[i:], d0^binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i+8:], d1^binary.LittleEndian.Uint64(src[i+8:]))
		binary.LittleEndian.PutUint64(dst[i+16:], d2^binary.LittleEndian.Uint64(src[i+16:]))
		binary.LittleEndian.PutUint64(dst[i+24:], d3^binary.LittleEndian.Uint64(src[i+24:]))
	}
	for ; i+8 <= n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XorSlice4 computes dst[i] ^= s1[i] ^ s2[i] ^ s3[i] ^ s4[i] in a single
// destination pass: the GF(2) analogue of MulAddSlice4, four sources per dst
// word load/store, 16 bytes per iteration. It is the inner kernel of the
// XOR-repair encoder, where a bitmask coefficient vector selects source
// blocks to fold together. The kernel runs over len(dst) bytes; all sources
// must be at least that long. Sources may not partially alias dst.
func XorSlice4(dst, s1, s2, s3, s4 []byte) {
	n := len(dst)
	s1, s2, s3, s4 = s1[:n], s2[:n], s3[:n], s4[:n]
	i := xor4Vec(dst, s1, s2, s3, s4)
	xor4Words(dst[i:], s1[i:], s2[i:], s3[i:], s4[i:])
}

// xor4Words is the portable XorSlice4.
func xor4Words(dst, s1, s2, s3, s4 []byte) {
	n := len(dst)
	s1 = s1[:n] // equal lengths: the first in-loop bounds check
	s2 = s2[:n] // proves away the rest
	s3 = s3[:n]
	s4 = s4[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		a := binary.LittleEndian.Uint64(s1[i:]) ^
			binary.LittleEndian.Uint64(s2[i:]) ^
			binary.LittleEndian.Uint64(s3[i:]) ^
			binary.LittleEndian.Uint64(s4[i:])
		b := binary.LittleEndian.Uint64(s1[i+8:]) ^
			binary.LittleEndian.Uint64(s2[i+8:]) ^
			binary.LittleEndian.Uint64(s3[i+8:]) ^
			binary.LittleEndian.Uint64(s4[i+8:])
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^a)
		binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^b)
	}
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(s1[i:]) ^
			binary.LittleEndian.Uint64(s2[i:]) ^
			binary.LittleEndian.Uint64(s3[i:]) ^
			binary.LittleEndian.Uint64(s4[i:])
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^a)
	}
	for ; i < n; i++ {
		dst[i] ^= s1[i] ^ s2[i] ^ s3[i] ^ s4[i]
	}
}

// MulAddSlice computes dst[i] ^= c·src[i] — the fundamental network-coding
// row operation. Past the vector prefix it dispatches on the remaining
// length between the bit-sliced and table-row strategies.
func MulAddSlice(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		AddSlice(dst, src)
		return
	}
	i := mulAddVec(dst, src, c)
	dst, src = dst[i:], src[i:]
	if len(src) >= tableRowThreshold {
		mulAddTable(dst, src, c)
		return
	}
	mulAddBitSliced(dst, src, c)
}

func mulAddBitSliced(dst, src []byte, c byte) {
	n := len(src)
	dst = dst[:n] // one length for every operand: the first in-loop bounds
	i := 0        // check proves the rest away
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		d := binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^mulLanes(s, c))
	}
	for ; i < n; i++ {
		dst[i] ^= mulSlow(src[i], c)
	}
}

// mulAddTable gathers 8 table products per 64-bit word: one src load, eight
// row lookups, one dst load and one dst store per 8 bytes. Compared to the
// scalar rung it eliminates seven of every eight dst read-modify-writes and
// their bounds checks.
func mulAddTable(dst, src []byte, c byte) {
	row := &_tables.mul[c]
	n := len(src)
	dst = dst[:n] // equal lengths let one bounds check dominate the loop body
	i := 0
	for ; i+16 <= n; i += 16 {
		s := binary.LittleEndian.Uint64(src[i:])
		u := binary.LittleEndian.Uint64(src[i+8:])
		v := uint64(row[byte(s)]) |
			uint64(row[byte(s>>8)])<<8 |
			uint64(row[byte(s>>16)])<<16 |
			uint64(row[byte(s>>24)])<<24 |
			uint64(row[byte(s>>32)])<<32 |
			uint64(row[byte(s>>40)])<<40 |
			uint64(row[byte(s>>48)])<<48 |
			uint64(row[byte(s>>56)])<<56
		w := uint64(row[byte(u)]) |
			uint64(row[byte(u>>8)])<<8 |
			uint64(row[byte(u>>16)])<<16 |
			uint64(row[byte(u>>24)])<<24 |
			uint64(row[byte(u>>32)])<<32 |
			uint64(row[byte(u>>40)])<<40 |
			uint64(row[byte(u>>48)])<<48 |
			uint64(row[byte(u>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^w)
	}
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		v := uint64(row[byte(s)]) |
			uint64(row[byte(s>>8)])<<8 |
			uint64(row[byte(s>>16)])<<16 |
			uint64(row[byte(s>>24)])<<24 |
			uint64(row[byte(s>>32)])<<32 |
			uint64(row[byte(s>>40)])<<40 |
			uint64(row[byte(s>>48)])<<48 |
			uint64(row[byte(s>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// MulAddSlice2 computes dst[i] ^= c1·src1[i] ^ c2·src2[i]. The portable
// kernel makes a single pass, loading and storing each destination word once
// for both sources; the vector rung makes one single-source pass per source,
// so neither source may alias dst. The kernel runs over len(dst) bytes; both
// sources must be at least that long. Zero coefficients degrade to the
// single-source kernel; coefficient 1 flows through the table's identity row
// unchanged.
func MulAddSlice2(dst, src1, src2 []byte, c1, c2 byte) {
	if c1 == 0 {
		MulAddSlice(dst, src2[:len(dst)], c2)
		return
	}
	if c2 == 0 {
		MulAddSlice(dst, src1[:len(dst)], c1)
		return
	}
	n := len(dst)
	src1, src2 = src1[:n], src2[:n]
	i := mulAddVec(dst, src1, c1)
	mulAddVec(dst, src2, c2)
	mulAdd2Table(dst[i:], src1[i:], src2[i:], c1, c2)
}

// mulAdd2Table is the portable MulAddSlice2 for any coefficients.
func mulAdd2Table(dst, src1, src2 []byte, c1, c2 byte) {
	r1 := &_tables.mul[c1]
	r2 := &_tables.mul[c2]
	n := len(dst)
	src1 = src1[:n] // equal lengths: the first in-loop bounds check
	src2 = src2[:n] // proves away the rest
	i := 0
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(src1[i:])
		b := binary.LittleEndian.Uint64(src2[i:])
		v := uint64(r1[byte(a)]^r2[byte(b)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for ; i < n; i++ {
		dst[i] ^= r1[src1[i]] ^ r2[src2[i]]
	}
}

// MulAddSlice4 computes dst[i] ^= c1·s1[i] ^ c2·s2[i] ^ c3·s3[i] ^ c4·s4[i]
// in a single destination pass — four coefficient·source pairs per dst word
// load/store. It is the innermost kernel of the tiled batch encoder. Zero
// coefficients degrade to narrower kernels.
func MulAddSlice4(dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) {
	// Compact out zero coefficients so the wide loop runs branch-free.
	if c1 == 0 || c2 == 0 || c3 == 0 || c4 == 0 {
		srcs := [4][]byte{s1, s2, s3, s4}
		cs := [4]byte{c1, c2, c3, c4}
		live := 0
		for j := 0; j < 4; j++ {
			if cs[j] != 0 {
				srcs[live], cs[live] = srcs[j], cs[j]
				live++
			}
		}
		switch live {
		case 0:
		case 1:
			MulAddSlice(dst, srcs[0][:len(dst)], cs[0])
		case 2:
			MulAddSlice2(dst, srcs[0], srcs[1], cs[0], cs[1])
		case 3:
			MulAddSlice2(dst, srcs[0], srcs[1], cs[0], cs[1])
			MulAddSlice(dst, srcs[2][:len(dst)], cs[2])
		}
		return
	}
	n := len(dst)
	s1, s2, s3, s4 = s1[:n], s2[:n], s3[:n], s4[:n]
	i := mulAdd4Vec(dst, s1, s2, s3, s4, c1, c2, c3, c4)
	mulAdd4Table(dst[i:], s1[i:], s2[i:], s3[i:], s4[i:], c1, c2, c3, c4)
}

// mulAdd4Table is the portable MulAddSlice4 for any coefficients.
func mulAdd4Table(dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) {
	r1 := &_tables.mul[c1]
	r2 := &_tables.mul[c2]
	r3 := &_tables.mul[c3]
	r4 := &_tables.mul[c4]
	n := len(dst)
	s1 = s1[:n] // equal lengths: the first in-loop bounds check
	s2 = s2[:n] // proves away the rest
	s3 = s3[:n]
	s4 = s4[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		v := uint64(r1[byte(a)]^r2[byte(b)]^r3[byte(c)]^r4[byte(d)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)]^r3[byte(c>>8)]^r4[byte(d>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)]^r3[byte(c>>16)]^r4[byte(d>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)]^r3[byte(c>>24)]^r4[byte(d>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)]^r3[byte(c>>32)]^r4[byte(d>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)]^r3[byte(c>>40)]^r4[byte(d>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)]^r3[byte(c>>48)]^r4[byte(d>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)]^r3[byte(c>>56)]^r4[byte(d>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		a = binary.LittleEndian.Uint64(s1[i+8:])
		b = binary.LittleEndian.Uint64(s2[i+8:])
		c = binary.LittleEndian.Uint64(s3[i+8:])
		d = binary.LittleEndian.Uint64(s4[i+8:])
		v = uint64(r1[byte(a)]^r2[byte(b)]^r3[byte(c)]^r4[byte(d)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)]^r3[byte(c>>8)]^r4[byte(d>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)]^r3[byte(c>>16)]^r4[byte(d>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)]^r3[byte(c>>24)]^r4[byte(d>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)]^r3[byte(c>>32)]^r4[byte(d>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)]^r3[byte(c>>40)]^r4[byte(d>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)]^r3[byte(c>>48)]^r4[byte(d>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)]^r3[byte(c>>56)]^r4[byte(d>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^v)
	}
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		v := uint64(r1[byte(a)]^r2[byte(b)]^r3[byte(c)]^r4[byte(d)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)]^r3[byte(c>>8)]^r4[byte(d>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)]^r3[byte(c>>16)]^r4[byte(d>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)]^r3[byte(c>>24)]^r4[byte(d>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)]^r3[byte(c>>32)]^r4[byte(d>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)]^r3[byte(c>>40)]^r4[byte(d>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)]^r3[byte(c>>48)]^r4[byte(d>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)]^r3[byte(c>>56)]^r4[byte(d>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for ; i < n; i++ {
		dst[i] ^= r1[s1[i]] ^ r2[s2[i]] ^ r3[s3[i]] ^ r4[s4[i]]
	}
}

// MulAddSlice1x2 applies one source to two destinations at once:
//
//	d1[i] ^= c1·src[i]
//	d2[i] ^= c2·src[i]
//
// Each source word is loaded and byte-extracted once for both destinations —
// the shape of Gauss–Jordan elimination, where one pivot row is eliminated
// out of many rows with per-row factors. Both destinations must be the same
// length; src must be at least that long and may not alias either
// destination. A zero coefficient drops to the single-destination kernel;
// the vector rung makes one single-source pass per destination.
func MulAddSlice1x2(d1, d2, src []byte, c1, c2 byte) {
	if c1 == 0 {
		MulAddSlice(d2, src[:len(d2)], c2)
		return
	}
	if c2 == 0 {
		MulAddSlice(d1, src[:len(d1)], c1)
		return
	}
	n := len(d1)
	d2, src = d2[:n], src[:n]
	i := mulAddVec(d1, src, c1)
	mulAddVec(d2, src, c2)
	mulAdd1x2Table(d1[i:], d2[i:], src[i:], c1, c2)
}

// mulAdd1x2Table is the portable MulAddSlice1x2 for any coefficients.
func mulAdd1x2Table(d1, d2, src []byte, c1, c2 byte) {
	r1 := &_tables.mul[c1]
	r2 := &_tables.mul[c2]
	n := len(d1)
	d2 = d2[:n]   // equal lengths: the first in-loop bounds check
	src = src[:n] // proves away the rest
	i := 0
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		x := byte(s)
		v := uint64(r1[x])
		u := uint64(r2[x])
		x = byte(s >> 8)
		v |= uint64(r1[x]) << 8
		u |= uint64(r2[x]) << 8
		x = byte(s >> 16)
		v |= uint64(r1[x]) << 16
		u |= uint64(r2[x]) << 16
		x = byte(s >> 24)
		v |= uint64(r1[x]) << 24
		u |= uint64(r2[x]) << 24
		x = byte(s >> 32)
		v |= uint64(r1[x]) << 32
		u |= uint64(r2[x]) << 32
		x = byte(s >> 40)
		v |= uint64(r1[x]) << 40
		u |= uint64(r2[x]) << 40
		x = byte(s >> 48)
		v |= uint64(r1[x]) << 48
		u |= uint64(r2[x]) << 48
		x = byte(s >> 56)
		v |= uint64(r1[x]) << 56
		u |= uint64(r2[x]) << 56
		binary.LittleEndian.PutUint64(d1[i:], binary.LittleEndian.Uint64(d1[i:])^v)
		binary.LittleEndian.PutUint64(d2[i:], binary.LittleEndian.Uint64(d2[i:])^u)
	}
	for ; i < n; i++ {
		x := src[i]
		d1[i] ^= r1[x]
		d2[i] ^= r2[x]
	}
}

// MulAddSlice4x2 applies the same four sources to two destinations at once:
//
//	d1[i] ^= ca[0]·s1[i] ^ ca[1]·s2[i] ^ ca[2]·s3[i] ^ ca[3]·s4[i]
//	d2[i] ^= cb[0]·s1[i] ^ cb[1]·s2[i] ^ cb[2]·s3[i] ^ cb[3]·s4[i]
//
// This is the widest portable rung: the four source words and the 32
// extracted source bytes are loaded and shifted once, then feed both
// destinations' table lookups — the per-byte extraction cost is halved
// relative to two MulAddSlice4 passes. Both destinations must be the same
// length; sources must be at least that long and may not alias either
// destination. Any zero coefficient drops to the narrower kernels, which
// compact zeros out. The vector rung runs as two 4-source passes: the
// 2×4 table pairs of a fused pass would not fit in 16 YMM registers.
func MulAddSlice4x2(d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) {
	if ca[0] == 0 || ca[1] == 0 || ca[2] == 0 || ca[3] == 0 ||
		cb[0] == 0 || cb[1] == 0 || cb[2] == 0 || cb[3] == 0 {
		MulAddSlice4(d1, s1, s2, s3, s4, ca[0], ca[1], ca[2], ca[3])
		MulAddSlice4(d2, s1, s2, s3, s4, cb[0], cb[1], cb[2], cb[3])
		return
	}
	n := len(d1)
	d2, s1, s2, s3, s4 = d2[:n], s1[:n], s2[:n], s3[:n], s4[:n]
	i := mulAdd4Vec(d1, s1, s2, s3, s4, ca[0], ca[1], ca[2], ca[3])
	mulAdd4Vec(d2, s1, s2, s3, s4, cb[0], cb[1], cb[2], cb[3])
	mulAdd4x2Table(d1[i:], d2[i:], s1[i:], s2[i:], s3[i:], s4[i:], ca, cb)
}

// mulAdd4x2Table is the portable MulAddSlice4x2 for any coefficients.
func mulAdd4x2Table(d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) {
	ra1 := &_tables.mul[ca[0]]
	ra2 := &_tables.mul[ca[1]]
	ra3 := &_tables.mul[ca[2]]
	ra4 := &_tables.mul[ca[3]]
	rb1 := &_tables.mul[cb[0]]
	rb2 := &_tables.mul[cb[1]]
	rb3 := &_tables.mul[cb[2]]
	rb4 := &_tables.mul[cb[3]]
	n := len(d1)
	d2 = d2[:n] // equal lengths: the first in-loop bounds check
	s1 = s1[:n] // proves away the rest
	s2 = s2[:n]
	s3 = s3[:n]
	s4 = s4[:n]
	i := 0
	// Two destination words per iteration: the second word's gathers are
	// independent of the first's accumulation chain, so the out-of-order core
	// overlaps their table lookups instead of serializing on v/u.
	for ; i+16 <= n; i += 16 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		a2 := binary.LittleEndian.Uint64(s1[i+8:])
		b2 := binary.LittleEndian.Uint64(s2[i+8:])
		c2 := binary.LittleEndian.Uint64(s3[i+8:])
		d2w := binary.LittleEndian.Uint64(s4[i+8:])
		x, y, z, w := byte(a), byte(b), byte(c), byte(d)
		v := uint64(ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w])
		u := uint64(rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w])
		x, y, z, w = byte(a2), byte(b2), byte(c2), byte(d2w)
		v2 := uint64(ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w])
		u2 := uint64(rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w])
		x, y, z, w = byte(a>>8), byte(b>>8), byte(c>>8), byte(d>>8)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 8
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 8
		x, y, z, w = byte(a2>>8), byte(b2>>8), byte(c2>>8), byte(d2w>>8)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 8
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 8
		x, y, z, w = byte(a>>16), byte(b>>16), byte(c>>16), byte(d>>16)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 16
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 16
		x, y, z, w = byte(a2>>16), byte(b2>>16), byte(c2>>16), byte(d2w>>16)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 16
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 16
		x, y, z, w = byte(a>>24), byte(b>>24), byte(c>>24), byte(d>>24)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 24
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 24
		x, y, z, w = byte(a2>>24), byte(b2>>24), byte(c2>>24), byte(d2w>>24)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 24
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 24
		x, y, z, w = byte(a>>32), byte(b>>32), byte(c>>32), byte(d>>32)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 32
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 32
		x, y, z, w = byte(a2>>32), byte(b2>>32), byte(c2>>32), byte(d2w>>32)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 32
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 32
		x, y, z, w = byte(a>>40), byte(b>>40), byte(c>>40), byte(d>>40)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 40
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 40
		x, y, z, w = byte(a2>>40), byte(b2>>40), byte(c2>>40), byte(d2w>>40)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 40
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 40
		x, y, z, w = byte(a>>48), byte(b>>48), byte(c>>48), byte(d>>48)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 48
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 48
		x, y, z, w = byte(a2>>48), byte(b2>>48), byte(c2>>48), byte(d2w>>48)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 48
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 48
		x, y, z, w = byte(a>>56), byte(b>>56), byte(c>>56), byte(d>>56)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 56
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 56
		x, y, z, w = byte(a2>>56), byte(b2>>56), byte(c2>>56), byte(d2w>>56)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 56
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 56
		binary.LittleEndian.PutUint64(d1[i:], binary.LittleEndian.Uint64(d1[i:])^v)
		binary.LittleEndian.PutUint64(d2[i:], binary.LittleEndian.Uint64(d2[i:])^u)
		binary.LittleEndian.PutUint64(d1[i+8:], binary.LittleEndian.Uint64(d1[i+8:])^v2)
		binary.LittleEndian.PutUint64(d2[i+8:], binary.LittleEndian.Uint64(d2[i+8:])^u2)
	}
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		x, y, z, w := byte(a), byte(b), byte(c), byte(d)
		v := uint64(ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w])
		u := uint64(rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w])
		x, y, z, w = byte(a>>8), byte(b>>8), byte(c>>8), byte(d>>8)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 8
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 8
		x, y, z, w = byte(a>>16), byte(b>>16), byte(c>>16), byte(d>>16)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 16
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 16
		x, y, z, w = byte(a>>24), byte(b>>24), byte(c>>24), byte(d>>24)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 24
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 24
		x, y, z, w = byte(a>>32), byte(b>>32), byte(c>>32), byte(d>>32)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 32
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 32
		x, y, z, w = byte(a>>40), byte(b>>40), byte(c>>40), byte(d>>40)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 40
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 40
		x, y, z, w = byte(a>>48), byte(b>>48), byte(c>>48), byte(d>>48)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 48
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 48
		x, y, z, w = byte(a>>56), byte(b>>56), byte(c>>56), byte(d>>56)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 56
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 56
		binary.LittleEndian.PutUint64(d1[i:], binary.LittleEndian.Uint64(d1[i:])^v)
		binary.LittleEndian.PutUint64(d2[i:], binary.LittleEndian.Uint64(d2[i:])^u)
	}
	for ; i < n; i++ {
		x, y, z, w := s1[i], s2[i], s3[i], s4[i]
		d1[i] ^= ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w]
		d2[i] ^= rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w]
	}
}

// MulSlice computes dst[i] = c·src[i] (no accumulation).
func MulSlice(dst, src []byte, c byte) {
	if c == 0 {
		clear(dst[:len(src)])
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	i := mulVec(dst, src, c)
	mulTable(dst[i:], src[i:], c)
}

// mulTable is the portable MulSlice for any coefficient.
func mulTable(dst, src []byte, c byte) {
	row := &_tables.mul[c]
	for i, v := range src {
		dst[i] = row[v]
	}
}

// ScaleSlice computes dst[i] = c·dst[i] in place.
func ScaleSlice(dst []byte, c byte) {
	MulSlice(dst, dst, c)
}

// DotProduct returns the GF(2^8) inner product of coefficient vector coeffs
// with the byte columns of rows: out[j] = Σ_i coeffs[i]·rows[i][j].
// All rows must be at least len(out) long. out is overwritten. Rows are
// consumed four at a time through the fused kernel so each out word is
// loaded/stored once per quadruple instead of once per row.
func DotProduct(out []byte, coeffs []byte, rows [][]byte) {
	clear(out)
	w := len(out)
	i := 0
	for ; i+4 <= len(coeffs); i += 4 {
		c1, c2, c3, c4 := coeffs[i], coeffs[i+1], coeffs[i+2], coeffs[i+3]
		if c1|c2|c3|c4 == 0 {
			continue
		}
		MulAddSlice4(out, rows[i][:w], rows[i+1][:w], rows[i+2][:w], rows[i+3][:w], c1, c2, c3, c4)
	}
	if i+2 <= len(coeffs) {
		MulAddSlice2(out, rows[i][:w], rows[i+1][:w], coeffs[i], coeffs[i+1])
		i += 2
	}
	for ; i < len(coeffs); i++ {
		if c := coeffs[i]; c != 0 {
			MulAddSlice(out, rows[i][:w], c)
		}
	}
}
