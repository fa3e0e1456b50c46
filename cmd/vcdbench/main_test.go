package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"vdsms/internal/experiments"
)

func TestListNamesEveryExperiment(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-list"}, &out, &errs); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errs.String())
	}
	var listed, want []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	for _, e := range experiments.Registry {
		want = append(want, e.Name)
	}
	if !slices.Equal(listed, want) {
		t.Errorf("-list printed %q, want %q", listed, want)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	for _, args := range [][]string{{"nonsense"}, {"ablation-index-update", "nonsense"}, {}} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%q exited %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q ran something before failing:\n%s", args, out.String())
		}
		if len(args) > 0 && !strings.Contains(errs.String(), `unknown experiment "nonsense"`) {
			t.Errorf("%q: stderr does not name the unknown experiment: %s", args, errs.String())
		}
	}
}

// TestRunPrintsTable runs one lab-free experiment through the command, as
// text and as CSV.
func TestRunPrintsTable(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"ablation-index-update"}, []string{"# Ablation: online query index maintenance", "rebuild B", "(ablation-index-update reproduces Section V.C.1"}},
		{[]string{"-csv", "ablation-index-update"}, []string{"# ablation-index-update (Section V.C.1", "m,online add,add B,"}},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != 0 {
			t.Fatalf("%q exited %d: %s", tc.args, code, errs.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%q output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
	}
}
