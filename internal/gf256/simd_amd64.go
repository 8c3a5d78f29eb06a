package gf256

// AVX2 rung of the kernel ladder. A CPUID check at init selects the VPSHUFB
// nibble-table kernels of simd_amd64.s; hosts without AVX2 keep the portable
// wide-word kernels of bulk.go, which also finish every row's tail below a
// whole 32-byte word. The *Vec helpers below run the vector kernel over the
// longest 32-byte-multiple prefix they can and return its length (0 without
// AVX2), so each exported kernel reads: shortcuts, vector prefix, portable
// tail.

// hasAVX2 reports whether the CPU and OS support AVX2. Fixed at init.
var hasAVX2 = detectAVX2()

// nibbles holds one VPSHUFB table per coefficient c: bytes 0–15 are c·x and
// bytes 16–31 are c·(x<<4) for x < 16, so c·v = nib[v&15] ^ nib[16+v>>4].
// 8 KiB in all.
var nibbles = buildNibbles()

func buildNibbles() *[256][32]byte {
	t := new([256][32]byte)
	for c := range t {
		row := &_tables.mul[c]
		for x := 0; x < 16; x++ {
			t[c][x] = row[x]
			t[c][16+x] = row[x<<4]
		}
	}
	return t
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (xcr0 uint32)

// detectAVX2 checks CPUID leaf 7 EBX bit 5 (AVX2), CPUID leaf 1 ECX bit 27
// (OSXSAVE: XGETBV is usable) and XCR0 bits 1–2 (the OS saves SSE and AVX
// register state across context switches).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xgetbv()&0b110 != 0b110 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func mulAddAVX2(tbl *[32]byte, dst, src []byte)

//go:noescape
func mulAVX2(tbl *[32]byte, dst, src []byte)

//go:noescape
func mulAdd4AVX2(t1, t2, t3, t4 *[32]byte, dst, s1, s2, s3, s4 []byte)

//go:noescape
func xorAVX2(dst, src []byte)

//go:noescape
func xor4AVX2(dst, s1, s2, s3, s4 []byte)

// vecLen returns the prefix of an n-byte row the vector kernels handle.
func vecLen(n int) int {
	if !hasAVX2 {
		return 0
	}
	return n &^ 31
}

// mulAddVec computes dst ^= c·src over the vector prefix of src.
func mulAddVec(dst, src []byte, c byte) int {
	m := vecLen(len(src))
	if m > 0 {
		mulAddAVX2(&nibbles[c], dst[:m], src[:m])
	}
	return m
}

// mulVec computes dst = c·src over the vector prefix of src.
func mulVec(dst, src []byte, c byte) int {
	m := vecLen(len(src))
	if m > 0 {
		mulAVX2(&nibbles[c], dst[:m], src[:m])
	}
	return m
}

// mulAdd4Vec computes dst ^= c1·s1 ^ c2·s2 ^ c3·s3 ^ c4·s4 over the vector
// prefix of dst.
func mulAdd4Vec(dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) int {
	m := vecLen(len(dst))
	if m > 0 {
		mulAdd4AVX2(&nibbles[c1], &nibbles[c2], &nibbles[c3], &nibbles[c4],
			dst[:m], s1[:m], s2[:m], s3[:m], s4[:m])
	}
	return m
}

// xorVec computes dst ^= src over the vector prefix of src.
func xorVec(dst, src []byte) int {
	m := vecLen(len(src))
	if m > 0 {
		xorAVX2(dst[:m], src[:m])
	}
	return m
}

// xor4Vec computes dst ^= s1 ^ s2 ^ s3 ^ s4 over the vector prefix of dst.
func xor4Vec(dst, s1, s2, s3, s4 []byte) int {
	m := vecLen(len(dst))
	if m > 0 {
		xor4AVX2(dst[:m], s1[:m], s2[:m], s3[:m], s4[:m])
	}
	return m
}
