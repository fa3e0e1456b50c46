package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"vdsms"
)

func parse(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "test")
	return f, fs.Parse(args)
}

// TestSharedCommandLine parses every shared flag and checks each Config
// field it sets; the defaults are the paper's.
func TestSharedCommandLine(t *testing.T) {
	f, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Config(); got != vdsms.DefaultConfig() {
		t.Errorf("no flags: Config() = %+v, want DefaultConfig %+v", got, vdsms.DefaultConfig())
	}

	f, err = parse(t, "-delta", "0.6", "-k", "400", "-window", "4", "-keyfps", "2.5",
		"-checkpoint-dir", "state", "-real-time-budget", "3s", "-shed", "-resync",
		"-slow-window", "250ms", "-span-sample", "0.5", "-span-log", "spans.ndjson",
		"-profile-dir", "prof", "-profile-every", "10s")
	if err != nil {
		t.Fatal(err)
	}
	want := vdsms.DefaultConfig()
	want.Delta, want.K, want.WindowSec, want.KeyFPS = 0.6, 400, 4, 2.5
	want.CheckpointDir = "state"
	want.RealTimeBudget, want.Shed, want.Resync = 3*time.Second, true, true
	want.SlowWindow = 250 * time.Millisecond
	if got := f.Config(); got != want {
		t.Errorf("Config() = %+v\nwant       %+v", got, want)
	}
	if f.spanSample != 0.5 || f.spanLog != "spans.ndjson" || f.profileDir != "prof" || f.profileEvery != 10*time.Second {
		t.Errorf("observability flags = %v %q %q %v", f.spanSample, f.spanLog, f.profileDir, f.profileEvery)
	}
}

// TestSlowWindowFlag: -slow-window takes a duration, "budget" (one basic
// window of the -window the same command line sets) or "off", and refuses
// anything else at parse time.
func TestSlowWindowFlag(t *testing.T) {
	cases := []struct {
		name, value string
		want        time.Duration
		refused     bool
	}{
		{"off", "off", 0, false},
		{"zero", "0", 0, false},
		{"duration", "250ms", 250 * time.Millisecond, false},
		{"budget", "budget", 4 * time.Second, false},
		{"garbage", "shrug", 0, true},
		{"negative", "-1s", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parse(t, "-slow-window", tc.value, "-window", "4")
			if tc.refused {
				if err == nil || !strings.Contains(err.Error(), "slow-window") {
					t.Fatalf("-slow-window %s: err = %v, want a refusal naming the flag", tc.value, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Config().SlowWindow; got != tc.want {
				t.Errorf("-slow-window %s: SlowWindow = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}
