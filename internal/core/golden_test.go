package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"vdsms/internal/snapshot"
)

// engineStateGolden is the SHA-256 of the checkpoint bytes goldenRun
// produces for each configuration, so that every change to the kernel or
// to ExportState must leave the exported state byte-identical. First
// recorded at bdeec16, before the kernel lost its sharded copy; re-recorded
// for checkpoint format version 2, whose plane section holds each query's
// cells instead of its sketch, once the kernel sections were found to be
// the version 1 writer's bytes.
var engineStateGolden = map[string]string{
	"seq-bit":    "33a05f560e10167ee90fd77a4af948677994ab8369f6b1c0c09e604355a8dbd9",
	"seq-sketch": "0f7fc87968991f2927e9c83f2d3bb52a32397e904826305a75daecf0d5b7da3c",
	"geo-bit":    "be0e585796f18379929b8c2301a9522c6161921a6b74eec6e99bf809dcb53f93",
	"geo-sketch": "689a2d8c4c9a09234e328562dd53304bab28a70642b93df1f81ddcac8d53dfa9",
	// First recorded at 775d5f2, before the candidate list became
	// ascending id slices: the NoIndex probers (the Sketch one lists the
	// plane itself) and the ablation without Lemma 2 pruning.
	"seq-bit-noindex":    "c86db72398c3952810f778af9aa917576d479404fe0062527adffeb1cb9e90dd",
	"seq-sketch-noindex": "8b5577c49a600b422682e4e962cf80fec43b809bce330934897cc5c98816e41c",
	"geo-bit-noindex":    "3fee5c3d7c6255589796af8d2c6186c2a2af3aa516ada9a5716009e222917f57",
	"geo-sketch-noindex": "26cc5f4d75b26dd9e46edf69d977d3404d5ae0498de37eacd705d5d7fe29094b",
	"seq-bit-noprune":    "b1b6bf0c2aef00901bc316e0848be6d332ab4b31ade1ec44d2fddae742864c06",
}

// goldenRun drives one engine through a seeded workload with subscription
// churn — a removal, and an addition whose material the stream later
// carries — and returns the canonical checkpoint bytes taken mid-window and
// again at the end of the stream.
func goldenRun(t testing.TB, cfg Config) (mid, end []byte) {
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
	half := len(stream)/2 + 3
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
		case half:
			mid = snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})
		}
	}
	if len(e.Matches) == 0 {
		t.Fatal("workload produced no matches; the golden would pin nothing")
	}
	return mid, snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})
}

// goldenCase is one configuration whose goldenRun state engineStateGolden
// pins.
type goldenCase struct {
	name         string
	order        Order
	method       Method
	noIndex      bool
	disablePrune bool
}

func (c goldenCase) config() Config {
	return Config{
		K: 192, Seed: 11, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: c.order, Method: c.method, UseIndex: !c.noIndex,
		DisablePrune: c.disablePrune,
	}
}

var goldenCases = []goldenCase{
	{name: "seq-bit", order: Sequential, method: Bit},
	{name: "seq-sketch", order: Sequential, method: Sketch},
	{name: "geo-bit", order: Geometric, method: Bit},
	{name: "geo-sketch", order: Geometric, method: Sketch},
	{name: "seq-bit-noindex", order: Sequential, method: Bit, noIndex: true},
	{name: "seq-sketch-noindex", order: Sequential, method: Sketch, noIndex: true},
	{name: "geo-bit-noindex", order: Geometric, method: Bit, noIndex: true},
	{name: "geo-sketch-noindex", order: Geometric, method: Sketch, noIndex: true},
	{name: "seq-bit-noprune", order: Sequential, method: Bit, disablePrune: true},
}

// TestEngineStateGolden pins the engine's exported state, byte for byte, for
// both orders under both methods, with and without the query index, and for
// the ablation without pruning.
func TestEngineStateGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			mid, end := goldenRun(t, c.config())
			sum := sha256.Sum256(append(mid, end...))
			if got, want := hex.EncodeToString(sum[:]), engineStateGolden[c.name]; got != want {
				t.Errorf("exported state SHA-256 = %s, want %s", got, want)
			}
		})
	}
}

// traceJournalGolden is the SHA-256 of the JSON of the events and match
// records traceRun journals for each variant, with the exact audit off and
// sampling every third decision; recorded at 775d5f2, before the five
// copies of the report decision became one.
var traceJournalGolden = map[string]string{
	"bit-seq-index/audit0":      "dea0a9a40f8f22d73b1562850b01cbb9b2098d612141d6db6fbfdb822c4945b0",
	"bit-seq-index/audit3":      "23d7e305f1c6a53327efa4cde68ad01074602e2302b2c1fe9b67b1708f054612",
	"bit-seq-noindex/audit0":    "dea0a9a40f8f22d73b1562850b01cbb9b2098d612141d6db6fbfdb822c4945b0",
	"bit-seq-noindex/audit3":    "23d7e305f1c6a53327efa4cde68ad01074602e2302b2c1fe9b67b1708f054612",
	"bit-geo-index/audit0":      "581adbe78dcc142a091a03d762477831a164775e4a4fe73253967d2af69bd4f6",
	"bit-geo-index/audit3":      "4ac7e6113c7d41de1589e86fb7303a2e75597eecacf60efb2bfda82275ba3a8d",
	"bit-geo-noindex/audit0":    "581adbe78dcc142a091a03d762477831a164775e4a4fe73253967d2af69bd4f6",
	"bit-geo-noindex/audit3":    "4ac7e6113c7d41de1589e86fb7303a2e75597eecacf60efb2bfda82275ba3a8d",
	"sketch-seq-index/audit0":   "15fc1dba95207fa07e0263bbf3d91ca2c6ce3b4b2ee70e449f19ebe5c830e32a",
	"sketch-seq-index/audit3":   "bc03c03c0d8b0caf9e155973685a9e6b4650670b469b46aaf1d9e9189f51f094",
	"sketch-seq-noindex/audit0": "ffb4dda4aec7e7a6f5ec7a0b5b9c33bc85f761d2233ef3aa6e8f248e5442dbf5",
	"sketch-seq-noindex/audit3": "aa20493c6642697766ada1a2b704fa567232889802f2616814ff12a33207a19e",
	"sketch-geo-index/audit0":   "ffced8dd1b98dbea394fb479ad25769f3cd669139d24d1d224368c3c939d3249",
	"sketch-geo-index/audit3":   "2e7441b5562dafe7a83bd760f8acd8515bc5ed9301cf92daea2ec5463edcec0c",
	"sketch-geo-noindex/audit0": "0a6a452636d14a7e839d49bb2ed0c242223380f77f8ad9d5f417b3463b156b3b",
	"sketch-geo-noindex/audit3": "a7998d0db8f3b39b5cea50e30d8327da9a2d52317cbef103be6a985efb9d7ba5",
}

// TestTraceJournalGolden pins the decision journal of every variant — the
// Geometric order and the Sketch method have no command-line surface, so
// this is where a change to their Extended / Reported / NearMiss / Pruned /
// Expired events shows.
func TestTraceJournalGolden(t *testing.T) {
	for _, v := range variants {
		for _, audit := range []int{0, 3} {
			name := fmt.Sprintf("%s/audit%d", v.name, audit)
			t.Run(name, func(t *testing.T) {
				_, events, records := traceRun(t, v, 192, audit, false)
				h := sha256.New()
				enc := json.NewEncoder(h)
				if err := enc.Encode(events); err != nil {
					t.Fatal(err)
				}
				if err := enc.Encode(records); err != nil {
					t.Fatal(err)
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), traceJournalGolden[name]; got != want {
					t.Errorf("journal SHA-256 = %s, want %s", got, want)
				}
			})
		}
	}
}
