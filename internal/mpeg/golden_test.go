package mpeg

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestEncodeGolden pins the encoder's output bytes for a fixed synthetic
// clip (I and P frames, so block codes, motion fields and alignment all
// pass through bitio.Writer). The hashes were taken with the bit-at-a-time
// writer; a mismatch means the bitstream changed, not just the code.
func TestEncodeGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		quality, gop int
		want         string
	}{
		{"q60-gop3", 60, 3, "4701af22dbd3a4f9f00e832a9491c8f2f99ef313fde59a78d360f24272627d59"},
		{"q95-intra", 95, 1, "1304ba661320775a9d972a8e6f5a75e189b68a83f72f2ee242e0c91c1d490327"},
	} {
		sum := sha256.Sum256(encode(t, synth(6, 11), tc.quality, tc.gop))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: encoded clip hash drifted:\ngot  %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
