package rlnc

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Wire format of a coded block (all integers big-endian):
//
//	offset  size  field
//	0       4     magic "XNC1"
//	4       4     segment ID
//	8       4     block count n
//	12      4     block size k
//	16      n     coefficient vector
//	16+n    k     coded payload
//	16+n+k  4     CRC-32 (IEEE) over everything above
const (
	wireMagic      = "XNC1"
	wireHeaderLen  = 16
	wireTrailerLen = 4
)

// Errors returned by UnmarshalBinary.
var (
	ErrBadMagic    = errors.New("rlnc: bad coded-block magic")
	ErrBadChecksum = errors.New("rlnc: coded-block checksum mismatch")
	ErrTruncated   = errors.New("rlnc: truncated coded block")
)

// CodedBlock is one network-coded packet: the coefficient vector c and the
// payload x = Σ c_i·b_i over the source blocks of one segment (Eq. 1).
type CodedBlock struct {
	SegmentID uint32
	Coeffs    []byte
	Payload   []byte
}

var (
	_ encoding.BinaryMarshaler   = (*CodedBlock)(nil)
	_ encoding.BinaryUnmarshaler = (*CodedBlock)(nil)
)

// Params returns the (n, k) configuration implied by the block's shape.
func (b *CodedBlock) Params() Params {
	return Params{BlockCount: len(b.Coeffs), BlockSize: len(b.Payload)}
}

// Validate checks the block against an expected configuration.
func (b *CodedBlock) Validate(p Params) error {
	if len(b.Coeffs) != p.BlockCount {
		return fmt.Errorf("%w: %d coefficients, want %d", ErrBlockShape, len(b.Coeffs), p.BlockCount)
	}
	if len(b.Payload) != p.BlockSize {
		return fmt.Errorf("%w: %d payload bytes, want %d", ErrBlockShape, len(b.Payload), p.BlockSize)
	}
	return nil
}

// Clone returns a deep copy.
func (b *CodedBlock) Clone() *CodedBlock {
	return &CodedBlock{
		SegmentID: b.SegmentID,
		Coeffs:    append([]byte(nil), b.Coeffs...),
		Payload:   append([]byte(nil), b.Payload...),
	}
}

// WireSize returns the marshaled length of the block.
func (b *CodedBlock) WireSize() int {
	return wireHeaderLen + len(b.Coeffs) + len(b.Payload) + wireTrailerLen
}

// MarshalBinary encodes the block in the wire format above.
func (b *CodedBlock) MarshalBinary() ([]byte, error) {
	return b.AppendBinary(make([]byte, 0, b.WireSize()))
}

// AppendBinary appends the block's wire encoding to dst and returns the
// extended slice (nil on error). Given WireSize bytes of spare capacity it
// writes in place without allocating: the record path marshals each block
// once, straight into its final (length-prefixed, pooled) frame buffer.
func (b *CodedBlock) AppendBinary(dst []byte) ([]byte, error) {
	if err := b.Params().Validate(); err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, wireMagic...)
	dst = binary.BigEndian.AppendUint32(dst, b.SegmentID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Coeffs)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Payload)))
	dst = append(dst, b.Coeffs...)
	dst = append(dst, b.Payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// UnmarshalBinary decodes a block from the wire format, validating magic,
// lengths and checksum.
func (b *CodedBlock) UnmarshalBinary(data []byte) error {
	if len(data) < wireHeaderLen+wireTrailerLen {
		return ErrTruncated
	}
	if string(data[:4]) != wireMagic {
		return ErrBadMagic
	}
	n := int(binary.BigEndian.Uint32(data[8:]))
	k := int(binary.BigEndian.Uint32(data[12:]))
	p := Params{BlockCount: n, BlockSize: k}
	if err := p.Validate(); err != nil {
		return err
	}
	want := wireHeaderLen + n + k + wireTrailerLen
	if len(data) != want {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrTruncated, len(data), want)
	}
	sum := crc32.ChecksumIEEE(data[:len(data)-wireTrailerLen])
	if sum != binary.BigEndian.Uint32(data[len(data)-wireTrailerLen:]) {
		return ErrBadChecksum
	}
	b.SegmentID = binary.BigEndian.Uint32(data[4:])
	b.Coeffs = append(b.Coeffs[:0], data[wireHeaderLen:wireHeaderLen+n]...)
	b.Payload = append(b.Payload[:0], data[wireHeaderLen+n:wireHeaderLen+n+k]...)
	return nil
}
