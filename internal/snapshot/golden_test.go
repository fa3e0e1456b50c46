package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointGolden pins every byte of a checkpoint that exercises all
// sections of the format (TestHeaderGolden pins only the header). The hash
// was re-recorded for format version 2, whose plane section is the query
// codec's bytes; the kernel sections are the bytes the version 1 writer
// wrote (testdata/v1-sample.vckp is the version 1 file).
func TestCheckpointGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	const want = "ef79839cf74a3bec0a0c266a4e6cd8fd77aba61e2445ee3875de879a1bf6f2ad"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("checkpoint bytes drifted (%d bytes):\ngot  %s\nwant %s", buf.Len(), got, want)
	}
}
