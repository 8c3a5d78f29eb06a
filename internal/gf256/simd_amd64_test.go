package gf256

import "testing"

// TestNibbleTables pins the table layout the AVX2 kernels rely on: for every
// coefficient c and byte v, c·v = nib[v&15] ^ nib[16+v>>4].
func TestNibbleTables(t *testing.T) {
	t.Logf("AVX2 kernels selected: %v", hasAVX2)
	for c := 0; c < 256; c++ {
		nib := &nibbles[c]
		for v := 0; v < 256; v++ {
			if got, want := nib[v&15]^nib[16+v>>4], mulSlow(byte(c), byte(v)); got != want {
				t.Fatalf("nibble table c=%#x v=%#x: %#x, want %#x", c, v, got, want)
			}
		}
	}
}
