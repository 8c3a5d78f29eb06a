//go:build !amd64

package gf256

// Without an assembly rung every row runs through the portable kernels: each
// *Vec helper handles an empty prefix.

func mulAddVec(dst, src []byte, c byte) int { return 0 }

func mulVec(dst, src []byte, c byte) int { return 0 }

func mulAdd4Vec(dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) int { return 0 }

func xorVec(dst, src []byte) int { return 0 }

func xor4Vec(dst, s1, s2, s3, s4 []byte) int { return 0 }
