package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointGolden pins every byte of a checkpoint that exercises all
// sections of the format (TestHeaderGolden pins only the header). The hash
// was taken with the bit-at-a-time writer.
func TestCheckpointGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	const want = "1ea1a5a6ee9123ee897e50fbdb86d0a6e1c4ab099563883d0c3e88e9129c9f79"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("checkpoint bytes drifted (%d bytes):\ngot  %s\nwant %s", buf.Len(), got, want)
	}
}
