package snapshot

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"vdsms/internal/qindex"
)

// codecSample holds a query of each form: two by their cells, one by its
// sketch alone.
var codecSample = []qindex.Query{
	{ID: 7, Length: 2, CellIDs: []uint64{300, 9}},
	{ID: -3, Length: 40, Sketch: []uint64{0, 1 << 60, math.MaxUint64}},
	{ID: 1 << 40, Length: 3, CellIDs: []uint64{math.MaxUint64, 2, 2}},
}

func TestQueryCodecRoundTrip(t *testing.T) {
	p := AppendQueries(nil, codecSample)
	got, err := ParseQueries(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, codecSample) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, codecSample)
	}
	if got, err := ParseQueries(AppendQueries(nil, nil)); err != nil || len(got) != 0 {
		t.Errorf("no queries read back as %v, %v", got, err)
	}
}

// TestQueryCodecIsTheWALs pins the bytes of a cell entry: the WAL's add
// payload, which the codec took over unchanged — count, zigzag id, cell
// count, cells.
func TestQueryCodecIsTheWALs(t *testing.T) {
	const want = "010e02ac0209"
	if got := hex.EncodeToString(AppendQueries(nil, codecSample[:1])); got != want {
		t.Errorf("cell entry %s, want %s", got, want)
	}
}

// TestQueryCodecRefusesMalformed: every proper prefix of an encoding, a
// trailing byte, and a sketch entry of length 0 are refused.
func TestQueryCodecRefusesMalformed(t *testing.T) {
	p := AppendQueries(nil, codecSample)
	for n := range len(p) {
		if _, err := ParseQueries(p[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of %d was accepted", n, len(p))
		}
	}
	if _, err := ParseQueries(append(p, 0)); err == nil {
		t.Error("a trailing byte was accepted")
	}
	zero := AppendQueries(nil, []qindex.Query{{ID: 1, Sketch: []uint64{5}}})
	if _, err := ParseQueries(zero); err == nil {
		t.Error("a sketch entry of length 0 was accepted")
	}
}
