package fleet

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"vdsms/internal/snapshot"
)

// TestRestoreBlobBoundedByInput: a VFLT container whose plane blob, or
// whose stream blob, declares 2³²−1 bytes and holds a few is refused, and
// reading it allocates with the bytes that arrive, not the length declared.
func TestRestoreBlobBoundedByInput(t *testing.T) {
	cfg := testConfig(1)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Attach("cam"); err != nil {
		t.Fatal(err)
	}
	meta := snapshot.Meta{U: 16, D: 8, KeyFPS: 3}
	var ck bytes.Buffer
	if err := p.Checkpoint(&ck, meta); err != nil {
		t.Fatal(err)
	}
	full := ck.Bytes()
	planeLen := int(binary.BigEndian.Uint32(full[6:]))
	streamAt := 6 + 4 + planeLen + 4 + 2 + len("cam") // the stream blob's length
	huge := binary.BigEndian.AppendUint32(nil, 1<<32-1)
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"plane", append(append(bytes.Clone(full[:6]), huge...), "VQS1"...)},
		{"stream", append(append(bytes.Clone(full[:streamAt]), huge...), "VCKP"...)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Restore(cfg, bytes.NewReader(c.data), meta)
		runtime.ReadMemStats(&after)
		if err == nil {
			r.Close()
			t.Fatalf("%s: a %d-byte container declaring a 2³²−1-byte blob was restored", c.name, len(c.data))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: restoring a %d-byte container allocated %d bytes, want < 1 MB", c.name, len(c.data), alloc)
		}
	}
}
