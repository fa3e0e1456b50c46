// Checkpoint/restore for the Detector facade: durable snapshots of the full
// matching state plus a write-ahead log of everything that changed it
// since, so a crashed monitor resumes exactly — same queries, same candidate
// state, same future matches — instead of restarting blind mid-stream.
//
// Durability protocol. Config.CheckpointDir holds two files: the current
// checkpoint (written atomically: temp file, fsync, rename, directory
// fsync) and the WAL that extends it (record grammar in
// internal/snapshot/wal.go): the cell ids consumed and the queries
// subscribed or unsubscribed since, in the order they happened. Every
// change follows one discipline — validate, log and fsync, apply: frames
// are appended and synced before they are pushed into the engine
// (pushLogged), and AddQuery/AddQueries/RemoveQuery are checked against
// the plane, logged as one record with one fsync, and only then applied
// (subscribe). So a change the plane would refuse is never logged, a change
// the log could not take is never applied, and a subscription change costs
// what one query costs (a ~100–250 B record: its cell ids, from which
// replay rebuilds sketch, index rows and filter keys) rather than what the
// plane costs.
//
// Full checkpoints are taken when a lineage starts (the first durable
// change finds no log to extend), after a Monitor-final partial-window
// flush (a mutation no record describes), on explicit Checkpoint calls, and
// by one size rule: at a window boundary, once the log has outgrown the
// checkpoint it extends (compactIfOutgrown). The rule bounds both
// directions. Writing: a checkpoint of C bytes is followed by more than C
// bytes of log before the next, so with the state's size steady the
// checkpoints add at most as many bytes as the log itself, and the zeros a
// new log is preallocated with (sized from its checkpoint) about as many
// again — write amplification ≤ 3×. Reading: recovery replays at most one
// checkpoint's worth of log (plus the window or the change that crossed
// the line).
//
// Recovery = Resume: load the checkpoint, read the log, decide which of its
// records the checkpoint already holds, replay the rest in log order —
// PushFrames for each run of frames, the ordinary engine calls for each
// subscription change, which therefore lands between the same two frames
// it was made between, mid-window included — and fold the result into a
// fresh checkpoint. Which records are covered matters in one window only:
// Checkpoint renames the new checkpoint into place and then rotates the
// log, and a crash between the two leaves the new checkpoint beside the old
// log. The log's header names the checkpoint it extends (that checkpoint's
// integrity trailer, snapshot.Identity); a log naming another checkpoint
// than the one beside it predates it and is covered whole, because a
// checkpoint is only ever replaced by one taken after every record of its
// log was applied. Frame position cannot make that call — a detector that
// never monitors (vcdserve's root) logs every change at frame 0 — and
// replaying a covered subscription twice fails with "already subscribed".
// Version 1 logs (frames only, no name) are still placed by position.
//
// Replay is deterministic, so the resumed detector behaves byte-identically
// to an uninterrupted run. Delivery: matches are at-least-once over the
// WAL tail (those the crashed run already reported are re-derived into
// Detector.Replayed); subscription changes are exactly-once — a change
// whose call returned is in the log and is applied once, whichever side of
// a checkpoint the crash falls on; a change whose call never returned is
// applied or not, whole, according to whether its record reached the disk.
//
// Only this detector's own AddQuery/AddQueries/RemoveQuery are logged:
// detectors and fleets that share its query plane (NewStream, NewFleet)
// change it without a record, so on a durable lineage subscription changes
// go through the durable detector.
package vdsms

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vdsms/internal/core"
	"vdsms/internal/snapshot"
)

const (
	// CheckpointFileName is the checkpoint file inside Config.CheckpointDir.
	CheckpointFileName = "checkpoint.vckp"
	// WALFileName is the write-ahead log (frames and subscription changes)
	// inside Config.CheckpointDir.
	WALFileName = "frames.wal"
)

// meta returns the pipeline parameters fingerprinted alongside the engine
// configuration: they shape the cell ids the engine consumes, so replaying
// a WAL under different values would silently corrupt state.
func (d *Detector) meta() snapshot.Meta {
	return snapshot.Meta{U: d.cfg.U, D: d.cfg.D, KeyFPS: d.cfg.KeyFPS}
}

// fingerprint is the compatibility stamp written into checkpoint and WAL
// headers.
func (d *Detector) fingerprint() uint64 {
	return d.engine.Config().Fingerprint(d.meta())
}

// CheckpointingEnabled reports whether this detector persists its state.
func (d *Detector) CheckpointingEnabled() bool { return d.cfg.CheckpointDir != "" }

// Checkpoint atomically writes the detector's complete matching state to
// the checkpoint directory and starts a fresh WAL that names it. Safe at
// any quiescent point, including mid-window. Returns an error if
// Config.CheckpointDir is unset.
func (d *Detector) Checkpoint() error {
	if !d.CheckpointingEnabled() {
		return fmt.Errorf("vdsms: checkpointing disabled (Config.CheckpointDir is empty)")
	}
	if err := os.MkdirAll(d.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("vdsms: creating checkpoint directory: %w", err)
	}
	ck := &snapshot.Checkpoint{Meta: d.meta(), Engine: *d.engine.ExportState()}
	data := snapshot.Marshal(ck)
	path := filepath.Join(d.cfg.CheckpointDir, CheckpointFileName)
	err := snapshot.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("vdsms: writing checkpoint: %w", err)
	}
	// Rotate the WAL only after the checkpoint is durably in place: a crash
	// between the two leaves the new checkpoint beside the old log, which
	// names the old checkpoint — Resume sees the mismatch and knows every
	// record in it is already part of the state it loaded.
	if d.wal != nil {
		err := d.wal.Close()
		d.wal = nil
		if err != nil {
			return fmt.Errorf("vdsms: closing WAL: %w", err)
		}
	}
	wal, err := snapshot.CreateWALExtending(filepath.Join(d.cfg.CheckpointDir, WALFileName),
		d.fingerprint(), ck.Engine.Frame, snapshot.Identity(data), int64(len(data)))
	if err != nil {
		return fmt.Errorf("vdsms: rotating WAL: %w", err)
	}
	d.wal, d.ckptBytes = wal, int64(len(data))
	return nil
}

// Close releases the WAL file handle. The final state is whatever the last
// Checkpoint captured plus the synced WAL tail; call Checkpoint first for
// a clean single-file handoff.
func (d *Detector) Close() error {
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}

// startLineage makes sure there is a log to append to: the first durable
// change of a lineage (and the first after a log failure) checkpoints the
// state it is about to change, so the WAL has a base to extend.
func (d *Detector) startLineage() error {
	if d.wal != nil {
		return nil
	}
	return d.Checkpoint()
}

// logFailed abandons a log whose last append or fsync failed. The change
// that wanted logging is not applied, and what the file's tail now holds is
// unknown, so nothing more is appended behind it: the next durable change
// starts over from a full checkpoint.
func (d *Detector) logFailed(err error) error {
	d.wal.Close() // its error adds nothing to err
	d.wal = nil
	return err
}

// compactIfOutgrown is the size rule: at a window boundary, a log that has
// outgrown the checkpoint it extends is folded into a new checkpoint. A
// checkpoint of C bytes is therefore followed by more than C bytes of log
// before the next one is written, and recovery never replays much more log
// than it read checkpoint.
func (d *Detector) compactIfOutgrown() error {
	if d.wal == nil || d.engine.PendingFrames() != 0 || d.wal.Size() <= d.ckptBytes {
		return nil
	}
	snapshot.Compactions.Inc()
	return d.Checkpoint()
}

// pushLogged is Monitor's frame path with durability: log and sync the
// batch, push it, and compact by the size rule at a window boundary.
func (d *Detector) pushLogged(batch []uint64) error {
	if d.CheckpointingEnabled() {
		if err := d.startLineage(); err != nil {
			return err
		}
		err := d.wal.Append(batch)
		if err == nil {
			if err = d.wal.Sync(); err != nil {
				err = fmt.Errorf("vdsms: syncing WAL: %w", err)
			}
		}
		if err != nil {
			return d.logFailed(err)
		}
	}
	d.engine.PushFrames(batch)
	return d.compactIfOutgrown()
}

// Resume rebuilds a detector from cfg.CheckpointDir: the checkpoint is
// loaded (failing loudly on any configuration drift, with the mismatched
// fields named), the WAL is replayed in log order — frames through the
// ordinary matching kernel, subscription changes through the ordinary
// AddQuery/RemoveQuery path, each at the stream position it was logged at —
// and the recovered state is folded into a fresh checkpoint. The returned
// bool reports whether a checkpoint existed; with an empty or absent
// directory Resume degenerates to NewDetector plus an initial checkpoint.
// Matches re-derived during replay are in Detector.Replayed, not delivered
// via OnMatch — the crashed run already reported them (recovery is
// at-least-once over the WAL tail).
func Resume(cfg Config) (*Detector, bool, error) {
	if cfg.CheckpointDir == "" {
		return nil, false, fmt.Errorf("vdsms: Resume requires Config.CheckpointDir")
	}
	d, err := NewDetector(cfg)
	if err != nil {
		return nil, false, err
	}

	data, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, CheckpointFileName))
	found := err == nil
	if err != nil && !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("vdsms: reading checkpoint: %w", err)
	}
	ckFrame := 0
	if found {
		ck, err := snapshot.Read(bytes.NewReader(data))
		if err != nil {
			return nil, false, err
		}
		// Engine-level fields are diffed by RestoreEngine below; the meta
		// triple (U, D, KeyFPS) is the facade's to check.
		if err := snapshot.CompatibilityError(ck.Meta, d.meta(), ck.Engine.Config, ck.Engine.Config); err != nil {
			return nil, false, err
		}
		eng, err := core.RestoreEngine(d.engine.Config(), &ck.Engine)
		if err != nil {
			return nil, false, err
		}
		d.arm(eng)
		ckFrame = ck.Engine.Frame
	}

	wlog, err := snapshot.ReplayWAL(filepath.Join(cfg.CheckpointDir, WALFileName))
	if err != nil {
		return nil, false, err
	}
	if !wlog.Empty() {
		if wlog.Fingerprint != d.fingerprint() {
			return nil, false, fmt.Errorf("vdsms: WAL fingerprint %016x does not match configuration fingerprint %016x (the log belongs to a different lineage)",
				wlog.Fingerprint, d.fingerprint())
		}
		// Which of the log's records does the checkpoint already hold? A
		// crash between checkpoint rename and WAL rotation leaves a log
		// older than the checkpoint beside it.
		switch {
		case wlog.Version == 1:
			// Frames only, placed by position: skip the covered prefix.
			skip := ckFrame - wlog.BaseFrame
			if skip < 0 {
				return nil, false, fmt.Errorf("vdsms: WAL begins at frame %d but checkpoint holds frame %d; frames lost",
					wlog.BaseFrame, ckFrame)
			}
			wlog.Frames = wlog.Frames[min(skip, len(wlog.Frames)):]
		case !found:
			return nil, false, fmt.Errorf("vdsms: WAL extends checkpoint %016x but %s holds no checkpoint",
				wlog.Extends, cfg.CheckpointDir)
		case wlog.Extends != snapshot.Identity(data):
			// Placed by identity — position cannot tell a subscription
			// change the checkpoint holds from one it does not (a detector
			// that never monitors logs every change at frame 0). The log
			// names another checkpoint, and a checkpoint is only ever
			// replaced by one taken after every record of its log was
			// applied: all of it is covered.
			wlog = &snapshot.Log{}
		}
		if err := wlog.Replay(d.engine.PushFrames, d.applyPlaneOp); err != nil {
			return nil, false, fmt.Errorf("vdsms: %w", err)
		}
		for _, m := range d.engine.Matches {
			d.Replayed = append(d.Replayed, d.convert(m))
		}
	}

	// Fold the replayed tail into a fresh checkpoint so the next crash
	// replays from here.
	if err := d.Checkpoint(); err != nil {
		return nil, false, err
	}
	return d, found, nil
}

// applyPlaneOp replays one logged subscription change through the engine
// call the live change went through: a remove, or one AddQueries of the
// logged batch, however many queries it holds.
func (d *Detector) applyPlaneOp(op snapshot.PlaneOp) error {
	if op.Remove {
		return d.engine.RemoveQuery(op.IDs[0])
	}
	return d.engine.AddQueries(op.IDs, op.Cells)
}
