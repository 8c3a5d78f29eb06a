#include "textflag.h"

// nibmask is the 0x0f byte that NIBMASK broadcasts.
DATA  nibmask<>+0(SB)/1, $0x0f
GLOBL nibmask<>(SB), RODATA|NOPTR, $1

// AVX2 GF(2^8) and GF(2) row kernels. Every kernel processes len(dst) bytes,
// which the Go wrappers guarantee is a non-zero multiple of 32, with every
// source at least that long.
//
// A product c·v splits on the nibbles of v: c·v = c·(v&15) ^ c·(v&0xf0). Each
// coefficient's 32-byte nibble table holds c·x in bytes 0–15 and c·(x<<4) in
// bytes 16–31. VPSHUFB looks up 32 lanes at once within each 128-bit half,
// so both 16-byte halves are broadcast to both halves of a YMM register.

// NIBBLES splits the 32 source bytes in src into low nibbles (in src) and
// high nibbles (in hi), using the 0x0f byte mask in mask.
#define NIBBLES(src, hi, mask) \
	VPSRLQ $4, src, hi; \
	VPAND  mask, src, src; \
	VPAND  mask, hi, hi

// MULNIB replaces lo with the 32 products of the nibble pair (lo, hi) under
// the broadcast tables (tlo, thi); hi is clobbered.
#define MULNIB(lo, hi, tlo, thi) \
	VPSHUFB lo, tlo, lo; \
	VPSHUFB hi, thi, hi; \
	VPXOR   hi, lo, lo

// LOADTABLE broadcasts the two halves of the nibble table at ptr.
#define LOADTABLE(ptr, tlo, thi) \
	VBROADCASTI128 (ptr), tlo; \
	VBROADCASTI128 16(ptr), thi

// NIBMASK fills mask with 0x0f bytes. It broadcasts from memory: staging
// the byte through a general register needs a legacy-SSE MOVQ into an XMM
// register, and on some cores that SSE/AVX mix costs ~200 ns per call.
#define NIBMASK(mask) \
	VPBROADCASTB nibmask<>(SB), mask

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET

// func mulAddAVX2(tbl *[32]byte, dst, src []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	LOADTABLE(AX, Y0, Y1)
	NIBMASK(Y2)
	XORQ BX, BX

muladd_loop:
	VMOVDQU (SI)(BX*1), Y3
	NIBBLES(Y3, Y4, Y2)
	MULNIB(Y3, Y4, Y0, Y1)
	VPXOR   (DI)(BX*1), Y3, Y3
	VMOVDQU Y3, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      muladd_loop
	VZEROUPPER
	RET

// func mulAVX2(tbl *[32]byte, dst, src []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	LOADTABLE(AX, Y0, Y1)
	NIBMASK(Y2)
	XORQ BX, BX

mul_loop:
	VMOVDQU (SI)(BX*1), Y3
	NIBBLES(Y3, Y4, Y2)
	MULNIB(Y3, Y4, Y0, Y1)
	VMOVDQU Y3, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      mul_loop
	VZEROUPPER
	RET

// func mulAdd4AVX2(t1, t2, t3, t4 *[32]byte, dst, s1, s2, s3, s4 []byte)
//
// All eight table halves stay resident (Y0–Y7); each dst word is loaded and
// stored once for the four sources.
TEXT ·mulAdd4AVX2(SB), NOSPLIT, $0-152
	MOVQ t1+0(FP), AX
	LOADTABLE(AX, Y0, Y1)
	MOVQ t2+8(FP), AX
	LOADTABLE(AX, Y2, Y3)
	MOVQ t3+16(FP), AX
	LOADTABLE(AX, Y4, Y5)
	MOVQ t4+24(FP), AX
	LOADTABLE(AX, Y6, Y7)
	NIBMASK(Y8)
	MOVQ dst_base+32(FP), DI
	MOVQ dst_len+40(FP), CX
	MOVQ s1_base+56(FP), R8
	MOVQ s2_base+80(FP), R9
	MOVQ s3_base+104(FP), R10
	MOVQ s4_base+128(FP), R11
	XORQ BX, BX

muladd4_loop:
	VMOVDQU (R8)(BX*1), Y9
	VMOVDQU (R9)(BX*1), Y11
	NIBBLES(Y9, Y10, Y8)
	NIBBLES(Y11, Y12, Y8)
	MULNIB(Y9, Y10, Y0, Y1)
	MULNIB(Y11, Y12, Y2, Y3)
	VPXOR   Y11, Y9, Y9
	VMOVDQU (R10)(BX*1), Y11
	VMOVDQU (R11)(BX*1), Y13
	NIBBLES(Y11, Y12, Y8)
	NIBBLES(Y13, Y14, Y8)
	MULNIB(Y11, Y12, Y4, Y5)
	MULNIB(Y13, Y14, Y6, Y7)
	VPXOR   Y13, Y11, Y11
	VPXOR   Y11, Y9, Y9
	VPXOR   (DI)(BX*1), Y9, Y9
	VMOVDQU Y9, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      muladd4_loop
	VZEROUPPER
	RET

// func xorAVX2(dst, src []byte)
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ BX, BX

xor_loop:
	VMOVDQU (SI)(BX*1), Y0
	VPXOR   (DI)(BX*1), Y0, Y0
	VMOVDQU Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      xor_loop
	VZEROUPPER
	RET

// func xor4AVX2(dst, s1, s2, s3, s4 []byte)
TEXT ·xor4AVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ s1_base+24(FP), R8
	MOVQ s2_base+48(FP), R9
	MOVQ s3_base+72(FP), R10
	MOVQ s4_base+96(FP), R11
	XORQ BX, BX

xor4_loop:
	VMOVDQU (R8)(BX*1), Y0
	VMOVDQU (R10)(BX*1), Y1
	VPXOR   (R9)(BX*1), Y0, Y0
	VPXOR   (R11)(BX*1), Y1, Y1
	VPXOR   Y1, Y0, Y0
	VPXOR   (DI)(BX*1), Y0, Y0
	VMOVDQU Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      xor4_loop
	VZEROUPPER
	RET
