package vdsms

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// withProcs runs f under GOMAXPROCS n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// goroutineID is the number of the calling goroutine, from its stack
// header ("goroutine 7 [running]:").
func goroutineID() int {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.Atoi(strings.Fields(string(buf[:n]))[1])
	if err != nil {
		panic(err)
	}
	return id
}

// tracedClip is a clip that notes the goroutine making each Read.
type tracedClip struct {
	r       io.Reader
	mu      sync.Mutex
	readers map[int]bool
}

func (c *tracedClip) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.readers[goroutineID()] = true
	c.mu.Unlock()
	return c.r.Read(p)
}

// batchClips encodes n short clips of distinct content, ids 1..n.
func batchClips(t *testing.T, n int) ([]int, [][]byte) {
	t.Helper()
	ids := make([]int, n)
	clips := make([][]byte, n)
	for i := range clips {
		ids[i], clips[i] = i+1, clip(t, int64(70+i), 6)
	}
	return ids, clips
}

func readers(clips [][]byte) []io.Reader {
	rs := make([]io.Reader, len(clips))
	for i, c := range clips {
		rs[i] = bytes.NewReader(c)
	}
	return rs
}

// TestAddQueriesAnyCoreCount: a batch subscribed to a durable detector
// under GOMAXPROCS 1, 2 and 4 logs the same add record, saves the same set
// and checkpoints the same plane.
func TestAddQueriesAnyCoreCount(t *testing.T) {
	ids, clips := batchClips(t, 12)
	var want map[string][]byte
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			cfg := sweepConfig(t.TempDir())
			det, err := NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer det.Close()
			if err := det.AddQueries(ids, readers(clips)); err != nil {
				t.Fatal(err)
			}
			got := map[string][]byte{}
			if got["wal"], err = os.ReadFile(filepath.Join(cfg.CheckpointDir, WALFileName)); err != nil {
				t.Fatal(err)
			}
			var saved bytes.Buffer
			if err := det.SaveQueries(&saved); err != nil {
				t.Fatal(err)
			}
			got["save"] = saved.Bytes()
			if err := det.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got["checkpoint"], err = os.ReadFile(filepath.Join(cfg.CheckpointDir, CheckpointFileName)); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				return
			}
			for name, b := range got {
				if !bytes.Equal(b, want[name]) {
					t.Errorf("GOMAXPROCS %d: the %s bytes differ from GOMAXPROCS 1's", procs, name)
				}
			}
		})
	}
}

// TestAddQueriesFailingClip: a batch with an undecodable clip at position
// i — and another at its end — returns clip i's error under GOMAXPROCS 1, 2
// and 4 and subscribes nothing: the detector holds no query and its
// directory no record, and the next subscription is the only one a resume
// finds.
func TestAddQueriesFailingClip(t *testing.T) {
	ids, good := batchClips(t, 5)
	junk := []byte("MVC1 but not a clip")
	for _, procs := range []int{1, 2, 4} {
		for i := range good {
			withProcs(procs, func() {
				clips := append([][]byte(nil), good...)
				clips[i], clips[len(clips)-1] = junk, junk
				cfg := sweepConfig(t.TempDir())
				det, err := NewDetector(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer det.Close()
				err = det.AddQueries(ids, readers(clips))
				if want := fmt.Sprintf("decoding query %d:", ids[i]); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("GOMAXPROCS %d, junk at %d: error %v, want one %q", procs, i, err, want)
				}
				if n := det.NumQueries(); n != 0 {
					t.Fatalf("GOMAXPROCS %d, junk at %d: %d queries subscribed", procs, i, n)
				}
				if entries, _ := os.ReadDir(cfg.CheckpointDir); len(entries) != 0 {
					t.Fatalf("GOMAXPROCS %d, junk at %d: the failed batch wrote %v", procs, i, entries)
				}
				mustAdd(t, det, 99, good[0])
				if got := mustResume(t, cfg, crashCopy(t, cfg.CheckpointDir, nil)).QueryIDs(); !reflect.DeepEqual(got, []int{99}) {
					t.Fatalf("GOMAXPROCS %d, junk at %d: resumed queries %v, want [99]", procs, i, got)
				}
			})
		}
	}
}

// TestAddQueriesOneGoroutinePerClip: each clip of a batch is read by one
// goroutine, start to end, whatever GOMAXPROCS; AddQuery reads its clip on
// the caller's goroutine.
func TestAddQueriesOneGoroutinePerClip(t *testing.T) {
	ids, clips := batchClips(t, 12)
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			det, err := NewDetector(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			traced := make([]*tracedClip, len(clips))
			rs := make([]io.Reader, len(clips))
			for i, c := range clips {
				traced[i] = &tracedClip{r: bytes.NewReader(c), readers: map[int]bool{}}
				rs[i] = traced[i]
			}
			if err := det.AddQueries(ids, rs); err != nil {
				t.Fatal(err)
			}
			goroutines := map[int]bool{}
			for i, c := range traced {
				if len(c.readers) != 1 {
					t.Errorf("GOMAXPROCS %d: clip %d read by goroutines %v", procs, i, c.readers)
				}
				for g := range c.readers {
					goroutines[g] = true
				}
			}
			t.Logf("GOMAXPROCS %d: %d clips read on %d goroutines", procs, len(clips), len(goroutines))

			one := &tracedClip{r: bytes.NewReader(clips[0]), readers: map[int]bool{}}
			if err := det.AddQuery(100, one); err != nil {
				t.Fatal(err)
			}
			if me := goroutineID(); !reflect.DeepEqual(one.readers, map[int]bool{me: true}) {
				t.Errorf("GOMAXPROCS %d: AddQuery's clip read by goroutines %v, not the caller's %d", procs, one.readers, me)
			}
		})
	}
}
