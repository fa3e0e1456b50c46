package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"vdsms/internal/snapshot"
)

// querySetOrderGolden is the SHA-256 of a Save and of the checkpoint bytes
// orderRun produces, so that both keep writing queries in insertion order,
// which orderRun makes differ from id order. First recorded at 9ff8721,
// before the plane kept its subscription set once; re-recorded when Save
// became "VQS2" and checkpoints version 2, both holding each query's cells
// instead of its sketch. The saved bytes no longer depend on the index or
// the method, so the three cases save the same bytes.
var querySetOrderGolden = map[string]string{
	"index/save":    "09c47ec6202361bb0cb65bc0692dcbcbb06441134291ae38d6f76db47de6e53a",
	"index/state":   "756afc9013cfa1459ce48edf6eedb36f0e1904f103ed841684b3b9a7687f4b6e",
	"noindex/save":  "09c47ec6202361bb0cb65bc0692dcbcbb06441134291ae38d6f76db47de6e53a",
	"noindex/state": "6b5b32680c4009ac48028fe5ad7b7989e1aa50354b8e003ba428ed408470c993",
	"sketch/save":   "09c47ec6202361bb0cb65bc0692dcbcbb06441134291ae38d6f76db47de6e53a",
	"sketch/state":  "411e206980b219fc06d763b2c447094ca39a4f05367e0c64e9d22c26349efa42",
}

// orderRun subscribes queries in an order unlike their ids' — descending
// single adds, a batch in the middle, a low id removed and added again —
// while a stream carrying copies of them runs, and returns the VQS1 bytes
// of the set and the checkpoint bytes of the engine, taken mid-stream and
// at its end.
func orderRun(t *testing.T, cfg Config) (save, state []byte) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	queries := make([][]uint64, 10)
	for i := range queries {
		queries[i] = idStream(rng, i+1, 25+7*i)
	}
	for _, id := range []int{9, 8, 7} {
		if err := e.AddQuery(id, queries[id]); err != nil {
			t.Fatal(err)
		}
	}
	var stream []uint64
	stream = append(stream, idStream(rng, 70, 43)...)
	for _, qi := range []int{8, 2, 6, 4, 9, 2, 1} {
		stream = append(stream, queries[qi]...)
		stream = append(stream, idStream(rng, 80+qi, 37)...)
	}
	for i, id := range stream {
		e.PushFrame(id)
		switch i {
		case 60:
			if err := e.AddQueries([]int{6, 2, 4}, [][]uint64{queries[6], queries[2], queries[4]}); err != nil {
				t.Fatal(err)
			}
		case 200:
			if err := e.RemoveQuery(2); err != nil {
				t.Fatal(err)
			}
		case 230:
			if err := e.AddQuery(2, queries[2]); err != nil {
				t.Fatal(err)
			}
		case 260:
			if err := e.AddQuery(1, queries[1]); err != nil {
				t.Fatal(err)
			}
		case len(stream) / 2:
			state = append(state, snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})...)
		}
	}
	if len(e.Matches) == 0 {
		t.Fatal("workload produced no matches; the golden would pin nothing")
	}
	state = append(state, snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})...)
	var buf bytes.Buffer
	if err := e.Queries().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), state
}

// orderCases are the configurations querySetOrderGolden pins.
var orderCases = []struct {
	name    string
	method  Method
	noIndex bool
}{
	{name: "index", method: Bit},
	{name: "noindex", method: Bit, noIndex: true},
	{name: "sketch", method: Sketch, noIndex: true},
}

// orderConfig is the configuration of an orderCases entry.
func orderConfig(method Method, noIndex bool) Config {
	return Config{K: 192, Seed: 11, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: method, UseIndex: !noIndex}
}

// checkOrderGolden holds the bytes orderRun gives under cfg to case name's
// hashes, and returns the saved bytes.
func checkOrderGolden(t *testing.T, name string, cfg Config) []byte {
	t.Helper()
	save, state := orderRun(t, cfg)
	for part, b := range map[string][]byte{"save": save, "state": state} {
		sum := sha256.Sum256(b)
		if got, want := hex.EncodeToString(sum[:]), querySetOrderGolden[name+"/"+part]; got != want {
			t.Errorf("%s SHA-256 = %s, want %s", part, got, want)
		}
	}
	return save
}

// TestQuerySetInsertionOrderGolden pins the bytes of Save and ExportState
// after a history whose insertion order is not id order, with and without
// the index and under both methods, and checks that a set loaded from the
// saved bytes saves them again unchanged.
func TestQuerySetInsertionOrderGolden(t *testing.T) {
	for _, c := range orderCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := orderConfig(c.method, c.noIndex)
			save := checkOrderGolden(t, c.name, cfg)
			qs, err := LoadQuerySet(cfg, bytes.NewReader(save))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := qs.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), save) {
				t.Error("a loaded set saves different bytes")
			}
		})
	}
}

// TestQuerySetRestoreVersion: a restored set is one plane version, as a
// loaded one is, whatever the number of queries it holds.
func TestQuerySetRestoreVersion(t *testing.T) {
	cfg := Config{K: 192, Seed: 11, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: Bit, UseIndex: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, id := range []int{5, 3, 9, 1} {
		if err := e.AddQuery(id, idStream(rng, id, 30)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := RestoreEngine(cfg, e.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := e.Queries().Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadQuerySet(cfg, &saved)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Queries().Version(), loaded.Version(); got != 1 || want != 1 {
		t.Errorf("restored set at version %d, loaded set at %d; want 1 for both", got, want)
	}
	if got := r.Queries().IDs(); !slices.Equal(got, []int{1, 3, 5, 9}) {
		t.Errorf("restored ids %v", got)
	}
}

// TestQuerySetIDsAscending: IDs lists the subscribed ids ascending, the
// same on every call, after churn that leaves insertion order unlike it.
func TestQuerySetIDsAscending(t *testing.T) {
	for _, useIndex := range []bool{true, false} {
		qs, err := NewQuerySet(64, 3, useIndex)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for _, id := range []int{40, 7, 300, 12, 9} {
			if err := qs.Add(id, idStream(rng, id, 12)); err != nil {
				t.Fatal(err)
			}
		}
		if err := qs.AddBatch([]int{2, 100, 55}, [][]uint64{idStream(rng, 2, 9), idStream(rng, 100, 9), idStream(rng, 55, 9)}); err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{7, 300} {
			if err := qs.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := qs.Add(7, idStream(rng, 7, 12)); err != nil {
			t.Fatal(err)
		}
		want := []int{2, 7, 9, 12, 40, 55, 100}
		a, b := qs.IDs(), qs.IDs()
		if !slices.Equal(a, want) || !slices.Equal(b, want) {
			t.Errorf("useIndex=%v: IDs gave %v then %v, want %v", useIndex, a, b, want)
		}
	}
}
