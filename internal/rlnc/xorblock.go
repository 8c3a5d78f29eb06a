package rlnc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// GF(2) (XOR-repair) wire encoding: the systematic fast path's packet shape.
// When every coefficient is 0 or 1 the vector is a bitmask, so the n-byte
// coefficient header of a dense block shrinks to ceil(n/8) bits and the
// payload is a pure XOR of the selected source blocks — no GF(2^8) arithmetic
// anywhere between encoder and decoder ("Balanced XOR-ed Coding", PAPERS.md).
//
// Wire format (all integers big-endian):
//
//	offset         size       field
//	0              4          magic "XNC2"
//	4              4          segment ID
//	8              4          block count n
//	12             4          block size k
//	16             ceil(n/8)  coefficient bitmask (bit i ⇒ byte i/8, 1<<(i%8),
//	                          the pivot-bitmap convention of decoderstate.go)
//	16+m           k          coded payload
//	16+m+k         4          CRC-32 (IEEE) over everything above
//
// Bits at positions ≥ n in the final mask byte must be zero: a checksummed
// record with stray trailing bits is rejected as hostile (ErrBadBitmask), so
// two distinct wire records can never alias one logical block.
const xorWireMagic = "XNC2"

// Errors of the GF(2) wire encoding.
var (
	// ErrNotBinary reports a MarshalBinaryXor call on a block whose
	// coefficients are not all 0 or 1.
	ErrNotBinary = errors.New("rlnc: coefficients are not GF(2)")
	// ErrBadBitmask reports a bitmask with bits set beyond the block count.
	ErrBadBitmask = errors.New("rlnc: xor-block bitmask has bits beyond block count")
)

// BitmaskLen returns ceil(n/8), the wire size of a GF(2) coefficient vector.
func BitmaskLen(n int) int { return (n + 7) / 8 }

// XorWireSize returns the marshaled length of a GF(2) coded block for p.
func XorWireSize(p Params) int {
	return wireHeaderLen + BitmaskLen(p.BlockCount) + p.BlockSize + wireTrailerLen
}

// IsBinary reports whether every coefficient is 0 or 1, i.e. whether the
// block is eligible for the GF(2) wire encoding and the decoder's XOR-only
// elimination fast path. Systematic source blocks (unit vectors) and XOR
// repair blocks are binary; dense-tail blocks are not.
func (b *CodedBlock) IsBinary() bool {
	for _, c := range b.Coeffs {
		if c > 1 {
			return false
		}
	}
	return true
}

// MarshalBinaryXor encodes the block in the GF(2) wire format above. It
// fails with ErrNotBinary when any coefficient exceeds 1 — the caller
// chooses the encoding per block (see netio's systematic mode).
func (b *CodedBlock) MarshalBinaryXor() ([]byte, error) {
	return b.AppendBinaryXor(make([]byte, 0, XorWireSize(b.Params())))
}

// AppendBinaryXor appends the block's GF(2) wire encoding to dst and returns
// the extended slice; like AppendBinary it writes in place given
// XorWireSize bytes of spare capacity. It fails with ErrNotBinary when any
// coefficient exceeds 1.
func (b *CodedBlock) AppendBinaryXor(dst []byte) ([]byte, error) {
	if err := b.Params().Validate(); err != nil {
		return nil, err
	}
	if !b.IsBinary() {
		return nil, ErrNotBinary
	}
	n := len(b.Coeffs)
	start := len(dst)
	dst = append(dst, xorWireMagic...)
	dst = binary.BigEndian.AppendUint32(dst, b.SegmentID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Payload)))
	for i := 0; i < n; i += 8 {
		var mask byte
		for j, c := range b.Coeffs[i:min(i+8, n)] {
			mask |= c << j // c is 0 or 1
		}
		dst = append(dst, mask)
	}
	dst = append(dst, b.Payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// UnmarshalBinaryXor decodes a GF(2) coded block, validating magic, lengths,
// checksum, and the trailing-bit invariant, expanding the bitmask back into
// a byte coefficient vector so the decoded block is interchangeable with a
// dense one.
func (b *CodedBlock) UnmarshalBinaryXor(data []byte) error {
	if len(data) < wireHeaderLen+wireTrailerLen {
		return ErrTruncated
	}
	if string(data[:4]) != xorWireMagic {
		return ErrBadMagic
	}
	n := int(binary.BigEndian.Uint32(data[8:]))
	k := int(binary.BigEndian.Uint32(data[12:]))
	p := Params{BlockCount: n, BlockSize: k}
	if err := p.Validate(); err != nil {
		return err
	}
	m := BitmaskLen(n)
	want := wireHeaderLen + m + k + wireTrailerLen
	if len(data) != want {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrTruncated, len(data), want)
	}
	sum := crc32.ChecksumIEEE(data[:len(data)-wireTrailerLen])
	if sum != binary.BigEndian.Uint32(data[len(data)-wireTrailerLen:]) {
		return ErrBadChecksum
	}
	mask := data[wireHeaderLen : wireHeaderLen+m]
	if n%8 != 0 && mask[m-1]>>(n%8) != 0 {
		return fmt.Errorf("%w: %d blocks, trailing byte %#x", ErrBadBitmask, n, mask[m-1])
	}
	b.SegmentID = binary.BigEndian.Uint32(data[4:])
	if cap(b.Coeffs) < n {
		b.Coeffs = make([]byte, n)
	}
	b.Coeffs = b.Coeffs[:n]
	for i := range b.Coeffs {
		b.Coeffs[i] = (mask[i/8] >> (i % 8)) & 1
	}
	b.Payload = append(b.Payload[:0], data[wireHeaderLen+m:wireHeaderLen+m+k]...)
	return nil
}

// UnmarshalRecord decodes either wire encoding, dispatching on the magic:
// "XNC1" dense, "XNC2" GF(2). It is the record parser of netio's systematic
// sessions, where both encodings interleave on one stream.
func (b *CodedBlock) UnmarshalRecord(data []byte) error {
	if len(data) >= 4 && string(data[:4]) == xorWireMagic {
		return b.UnmarshalBinaryXor(data)
	}
	return b.UnmarshalBinary(data)
}
