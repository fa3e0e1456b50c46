package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"vdsms/internal/snapshot"
)

// engineStateGolden is the SHA-256 of the checkpoint bytes goldenRun
// produces for each configuration, recorded at bdeec16 — before the kernel
// lost its sharded copy — so that every later change to the kernel or to
// ExportState must leave the exported state byte-identical.
var engineStateGolden = map[string]string{
	"seq-bit":           "cf734df6673ac00046bd3308a321c3205ef170863498b8bab22d1675edca840e",
	"seq-sketch":        "ea42a5410c7fd59ddf435e76a17608909a8a965e5e576fb4b48a10b2955adc01",
	"geo-bit":           "18a67becb43f790b52733b2b83c1595417109b44284626be74e8c6cdf5c6f309",
	"geo-sketch":        "0a3aa9570a6816fdc583b18c25187bb4f92a3afba1257100bd10a6aa718c4f33",
	"seq-bit-prefilter": "cf734df6673ac00046bd3308a321c3205ef170863498b8bab22d1675edca840e",
}

// goldenRun drives one engine through a seeded workload with subscription
// churn — a removal, and an addition whose material the stream later
// carries — and returns the canonical checkpoint bytes taken mid-window and
// again at the end of the stream.
func goldenRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2008))
	queries := make([][]uint64, 8)
	for i := range queries {
		queries[i] = idStream(rng, i+1, 30+10*i)
	}
	for i := 0; i < 7; i++ {
		if err := e.AddQuery(i+1, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	var stream []uint64
	stream = append(stream, idStream(rng, 50, 85)...)
	for _, qi := range []int{2, 0, 7, 5, 3, 7} {
		stream = append(stream, queries[qi]...)
		stream = append(stream, idStream(rng, 60+qi, 47)...)
	}
	mid := len(stream)/2 + 3
	var out []byte
	for i, id := range stream {
		e.PushFrame(id)
		switch i {
		case 150:
			if err := e.RemoveQuery(3); err != nil {
				t.Fatal(err)
			}
		case 200:
			if err := e.AddQuery(8, queries[7]); err != nil {
				t.Fatal(err)
			}
		case mid:
			out = append(out, snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})...)
		}
	}
	if len(e.Matches) == 0 {
		t.Fatal("workload produced no matches; the golden would pin nothing")
	}
	return append(out, snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})...)
}

// TestEngineStateGolden pins the engine's exported state, byte for byte, for
// both orders under both methods and for the pre-filter tier.
func TestEngineStateGolden(t *testing.T) {
	cases := []struct {
		name      string
		order     Order
		method    Method
		prefilter bool
	}{
		{"seq-bit", Sequential, Bit, false},
		{"seq-sketch", Sequential, Sketch, false},
		{"geo-bit", Geometric, Bit, false},
		{"geo-sketch", Geometric, Sketch, false},
		{"seq-bit-prefilter", Sequential, Bit, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				K: 192, Seed: 11, Delta: 0.5, Lambda: 2, WindowFrames: 10,
				Order: c.order, Method: c.method, UseIndex: true, PreFilter: c.prefilter,
			}
			sum := sha256.Sum256(goldenRun(t, cfg))
			if got, want := hex.EncodeToString(sum[:]), engineStateGolden[c.name]; got != want {
				t.Errorf("exported state SHA-256 = %s, want %s", got, want)
			}
		})
	}
}
