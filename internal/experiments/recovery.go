package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/partition"
	"vdsms/internal/snapshot"
	"vdsms/internal/stats"
)

// Recovery measures the checkpoint/restore subsystem (beyond the paper):
// the VS1 stream is cut at several points; at each cut the engine state is
// serialized and restored, the remaining frames are journaled to and
// replayed from a WAL, and the recovered run must finish with exactly the
// matches of an uninterrupted one. Columns report checkpoint size and
// write/restore latency, WAL append throughput (with per-batch fsync, the
// monitor's durability path), and replay time and throughput — the two
// rates that bound recovery time after a crash. The churn rows spread N
// subscription changes (a query leaves, later comes back) through the log
// of the 50% cut, each logged as the facade logs it — one record, one
// fsync — and replayed at its position: recovery time and log bytes
// against N.
func Recovery(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS1(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	wFrames := dv.cfg.KeyWindowFrames(5)
	cfg := coreConfig(800, 0.7, wFrames, seqOrder)
	meta := snapshot.Meta{U: 4, D: 5, KeyFPS: dv.cfg.KeyFPS}

	dir, err := os.MkdirTemp("", "vdsms-recovery")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	tb := stats.NewTable("Recovery: checkpoint cost and WAL replay (VS1, bit-seq-index)",
		"cut", "plane-recs", "ckpt-bytes", "write", "restore", "wal-frames", "wal-bytes",
		"append-fps", "replay", "replay-fps", "identical")
	for i, sc := range []struct {
		frac      float64
		planeRecs int
	}{{0.25, 0}, {0.5, 0}, {0.75, 0}, {0.5, 16}, {0.5, 64}, {0.5, 256}} {
		cut := int(sc.frac * float64(len(dv.streamIDs)))
		tail := dv.streamIDs[cut:]
		plan := churnPlan(sc.planeRecs, len(tail), dv)

		// Reference: one uninterrupted run making the same changes.
		ref, err := newSubscribedEngine(cfg, dv)
		if err != nil {
			return nil, err
		}
		ref.PushFrames(dv.streamIDs[:cut])
		if err := plan.Replay(ref.PushFrames, applyTo(ref)); err != nil {
			return nil, err
		}
		ref.Flush()

		res, err := newSubscribedEngine(cfg, dv)
		if err != nil {
			return nil, err
		}
		res.PushFrames(dv.streamIDs[:cut])

		// Checkpoint: serialize the full matching state.
		var ckpt []byte
		writeT := stats.Time(func() {
			ckpt = snapshot.Marshal(&snapshot.Checkpoint{Meta: meta, Engine: *res.ExportState()})
		})

		// Restore into a fresh engine.
		var restored *core.Engine
		var rerr error
		restoreT := stats.Time(func() {
			var ck *snapshot.Checkpoint
			if ck, rerr = snapshot.Read(bytes.NewReader(ckpt)); rerr == nil {
				restored, rerr = core.RestoreEngine(cfg, &ck.Engine)
			}
		})
		if rerr != nil {
			return nil, rerr
		}

		// Journal the tail with the monitor's append-then-sync discipline,
		// one window-sized batch at a time, then replay it.
		walPath := filepath.Join(dir, fmt.Sprintf("%d.wal", i))
		var walBytes int64
		var aerr error
		appendT := stats.Time(func() {
			var wal *snapshot.WAL
			wal, aerr = snapshot.CreateWALExtending(walPath, cfg.Fingerprint(meta), cut, snapshot.Identity(ckpt), int64(len(ckpt)))
			if aerr != nil {
				return
			}
			defer wal.Close()
			aerr = plan.Replay(func(frames []uint64) {
				for len(frames) > 0 && aerr == nil {
					n := min(wFrames, len(frames))
					if aerr = wal.Append(frames[:n]); aerr == nil {
						aerr = wal.Sync()
					}
					frames = frames[n:]
				}
			}, func(op snapshot.PlaneOp) error {
				if aerr != nil {
					return aerr
				}
				if op.Remove {
					return wal.LogRemove(op.IDs[0])
				}
				return wal.LogAdd(op.IDs, op.Cells)
			})
			walBytes = wal.Size()
		})
		if aerr != nil {
			return nil, aerr
		}
		var wlog *snapshot.Log
		var perr error
		replayT := stats.Time(func() {
			if wlog, perr = snapshot.ReplayWAL(walPath); perr != nil {
				return
			}
			perr = wlog.Replay(restored.PushFrames, applyTo(restored))
			restored.Flush()
		})
		if perr != nil {
			return nil, perr
		}

		recovered := append(append([]core.Match(nil), res.Matches...), restored.Matches...)
		tb.AddRow(fmt.Sprintf("%.0f%%", sc.frac*100), len(wlog.Plane), len(ckpt),
			writeT.Round(time.Microsecond), restoreT.Round(time.Microsecond),
			len(wlog.Frames), walBytes, fps(len(tail), appendT),
			replayT.Round(time.Microsecond), fps(len(wlog.Frames), replayT),
			slices.Equal(recovered, ref.Matches))
	}
	return tb, nil
}

// churnPlan spreads n subscription changes evenly over a log of frames
// frames, as the Log a WAL holding them would replay to: the workload's
// queries leave one after another, each coming back with the change after.
func churnPlan(n, frames int, d *derived) *snapshot.Log {
	qids := make([]int, 0, len(d.queryIDs))
	for qid := range d.queryIDs {
		qids = append(qids, qid)
	}
	sort.Ints(qids)
	plan := &snapshot.Log{Frames: d.streamIDs[len(d.streamIDs)-frames:]}
	for i := 0; i < n; i++ {
		qid := qids[i/2%len(qids)]
		op := snapshot.PlaneOp{At: (i + 1) * frames / (n + 1), Remove: i%2 == 0, IDs: []int{qid}}
		if !op.Remove {
			op.Cells = [][]uint64{d.queryIDs[qid]}
		}
		plan.Plane = append(plan.Plane, op)
	}
	return plan
}

// applyTo replays churnPlan's single-query subscription changes into eng.
func applyTo(eng *core.Engine) func(snapshot.PlaneOp) error {
	return func(op snapshot.PlaneOp) error {
		if op.Remove {
			return eng.RemoveQuery(op.IDs[0])
		}
		return eng.AddQuery(op.IDs[0], op.Cells[0])
	}
}

// newSubscribedEngine builds an engine with every workload query subscribed
// but no stream consumed.
func newSubscribedEngine(cfg core.Config, d *derived) (*core.Engine, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	// Deterministic subscription order, matching runEngine.
	qids := make([]int, 0, len(d.queryIDs))
	for qid := range d.queryIDs {
		qids = append(qids, qid)
	}
	sort.Ints(qids)
	for _, qid := range qids {
		if err := eng.AddQuery(qid, d.queryIDs[qid]); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// fps formats a frames-per-second rate.
func fps(frames int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(frames)/d.Seconds())
}
