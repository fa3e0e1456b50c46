// Write-ahead log. Between checkpoints, everything that changes the
// engine — every cell id pushed into it, every query subscribed or
// unsubscribed — is first appended here; recovery replays the log in order
// through the ordinary engine calls.
//
// File layout:
//
//	header  = "VCWL" | version (16 bits) | config fingerprint (64) |
//	          base frame (64) | extends (64, version 2 only)
//	record  = frame | add | remove
//	frame   = 0xA5 | uvarint cell id
//	add     = 0xA6 | uvarint len | payload | CRC-32 (IEEE, big-endian)
//	          payload = uvarint n | n × ( varint id | uvarint cells | cells × uvarint )
//	remove  = 0xA7 | uvarint len | payload | CRC-32
//	          payload = varint id
//
// "extends" is the Identity of the checkpoint the log continues; version 1
// logs (frames only, written by CreateWAL) have no such field and are placed
// against their checkpoint by base frame instead. A plane record carries a
// query's cell ids — a few hundred bytes — never its sketch: replay
// re-derives sketch, index rows and filter keys with the code that built
// them. The CRC covers the record from its marker; a batch of queries is one
// record, so it lands whole or not at all.
//
// A crash can cut the file anywhere. A file that ends inside its last
// record has a torn tail, which replay discards: every non-final byte of a
// varint has its continuation bit set and a framed record states its
// length, so no proper prefix of a record reads as a complete one. Anything
// else malformed — an unknown marker, a checksum mismatch, a payload that
// does not parse — is corruption and fails the replay loudly.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"vdsms/internal/telemetry"
)

// Durability-path telemetry: WAL appends and fsyncs bound the per-batch
// latency floor of a checkpointed monitor (and the whole cost of a durable
// subscription change), checkpoint writes bound its worst-case stall, and
// the log's size against its checkpoint's is what schedules the next one.
var (
	telWALAppend = telemetry.Default.Histogram("vcd_wal_append_duration_seconds",
		"Duration of WAL batch appends (write syscall, pre-fsync).", telemetry.DurationBuckets)
	telWALFsync = telemetry.Default.Histogram("vcd_wal_fsync_duration_seconds",
		"Duration of WAL fsyncs.", telemetry.DurationBuckets)
	telWALFrames = telemetry.Default.Counter("vcd_wal_frames_total",
		"Frame records appended to WALs.")
	telWALAdds = telemetry.Default.Counter("vcd_wal_plane_records_total",
		"Subscription-change records appended to WALs.", telemetry.L("op", "add"))
	telWALRemoves = telemetry.Default.Counter("vcd_wal_plane_records_total",
		"Subscription-change records appended to WALs.", telemetry.L("op", "remove"))
	telWALBytes = telemetry.Default.Gauge("vcd_wal_bytes",
		"Size of the most recently written WAL; a checkpoint compacts it once it outgrows the checkpoint it extends.")
	telCkptWrite = telemetry.Default.Histogram("vcd_checkpoint_write_duration_seconds",
		"Duration of atomic checkpoint writes (serialise, fsync, rename).", telemetry.DurationBuckets)
	telCkptTotal = telemetry.Default.Counter("vcd_checkpoints_total",
		"Checkpoints durably written.")
	// Compactions counts the checkpoints among vcd_checkpoints_total that
	// were taken because the log had outgrown the checkpoint it extends.
	Compactions = telemetry.Default.Counter("vcd_checkpoint_compactions_total",
		"Checkpoints taken because the WAL outgrew the checkpoint it extends.")
)

// WALMagic identifies a WAL file.
var WALMagic = [4]byte{'V', 'C', 'W', 'L'}

// Header sizes: magic(4) + version(2) + fingerprint(8) + baseFrame(8), and
// in version 2 the identity(8) of the checkpoint the log extends.
const (
	walHeaderSize   = 22
	walHeaderSizeV2 = walHeaderSize + 8
)

// Record markers. A byte that is none of them where a record should begin
// means corruption (not a torn tail) and fails the replay loudly.
const (
	walMarker       = 0xA5 // frame
	walMarkerAdd    = 0xA6
	walMarkerRemove = 0xA7
)

// WAL is an append-only log bound to one checkpoint lineage: its header
// carries the configuration fingerprint (replaying into an incompatible
// engine is refused), the stream frame index of its first frame record,
// and — for logs that may hold subscription changes — the identity of the
// checkpoint it extends, which is what decides whether a log found beside
// a checkpoint continues it or predates it.
type WAL struct {
	f    *os.File
	path string
	buf  []byte
	size int64
	// Frames counts frame records appended over the WAL's lifetime.
	Frames int
}

// CreateWAL starts a fresh frames-only (version 1) WAL at path, truncating
// any previous log. A log that may carry subscription changes must name its
// checkpoint — replay refuses them in a version 1 log: use
// CreateWALExtending.
func CreateWAL(path string, fingerprint uint64, baseFrame int) (*WAL, error) {
	return createWAL(path, 1, fingerprint, baseFrame, 0)
}

// CreateWALExtending starts a fresh WAL at path for the checkpoint whose
// Identity is extends, truncating any previous log. Call immediately after
// that checkpoint is durably renamed into place, with baseFrame = its frame
// position.
func CreateWALExtending(path string, fingerprint uint64, baseFrame int, extends uint64) (*WAL, error) {
	return createWAL(path, 2, fingerprint, baseFrame, extends)
}

func createWAL(path string, version uint16, fingerprint uint64, baseFrame int, extends uint64) (*WAL, error) {
	_, statErr := os.Lstat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snapshot: creating WAL: %w", err)
	}
	hdr := make([]byte, walHeaderSize, walHeaderSizeV2)
	copy(hdr[:4], WALMagic[:])
	binary.BigEndian.PutUint16(hdr[4:], version)
	binary.BigEndian.PutUint64(hdr[6:], fingerprint)
	binary.BigEndian.PutUint64(hdr[14:], uint64(baseFrame))
	if version >= 2 {
		hdr = binary.BigEndian.AppendUint64(hdr, extends)
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("snapshot: writing WAL header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("snapshot: syncing WAL header: %w", err)
	}
	if os.IsNotExist(statErr) {
		// A new directory entry is durable only once the directory is.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	w := &WAL{f: f, path: path}
	w.grew(len(hdr))
	return w, nil
}

// syncDir fsyncs a directory, making renames into it and files created in
// it survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: opening directory for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("snapshot: syncing directory %s: %w", dir, err)
	}
	return nil
}

func (w *WAL) grew(n int) {
	w.size += int64(n)
	telWALBytes.Set(float64(w.size))
}

// Size returns the log's length in bytes, header included.
func (w *WAL) Size() int64 { return w.size }

// write appends w.buf with a single write syscall.
func (w *WAL) write() error {
	if w.f == nil {
		return fmt.Errorf("snapshot: append to closed WAL")
	}
	var t0 time.Time
	if timed := telemetry.Enabled(); timed {
		t0 = time.Now()
		defer func() { telWALAppend.ObserveDuration(time.Since(t0)) }()
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("snapshot: appending to WAL: %w", err)
	}
	w.grew(len(w.buf))
	return nil
}

// Append logs one batch of cell ids as individual frame records with a
// single write syscall. Call Sync to make the batch durable.
func (w *WAL) Append(ids []uint64) error {
	w.buf = w.buf[:0]
	for _, id := range ids {
		w.buf = append(w.buf, walMarker)
		w.buf = binary.AppendUvarint(w.buf, id)
	}
	if err := w.write(); err != nil {
		return err
	}
	w.Frames += len(ids)
	telWALFrames.Add(int64(len(ids)))
	return nil
}

// LogAdd durably logs the subscription of queries ids with key-frame cell
// ids cells as one record: one write, one fsync.
func (w *WAL) LogAdd(ids []int, cells [][]uint64) error {
	p := binary.AppendUvarint(nil, uint64(len(ids)))
	for i, id := range ids {
		p = binary.AppendVarint(p, int64(id))
		p = binary.AppendUvarint(p, uint64(len(cells[i])))
		for _, c := range cells[i] {
			p = binary.AppendUvarint(p, c)
		}
	}
	if err := w.logPlane(walMarkerAdd, p); err != nil {
		return err
	}
	telWALAdds.Inc()
	return nil
}

// LogRemove durably logs the unsubscription of query id.
func (w *WAL) LogRemove(id int) error {
	if err := w.logPlane(walMarkerRemove, binary.AppendVarint(nil, int64(id))); err != nil {
		return err
	}
	telWALRemoves.Inc()
	return nil
}

func (w *WAL) logPlane(marker byte, payload []byte) error {
	w.buf = append(w.buf[:0], marker)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	w.buf = binary.BigEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
	if err := w.write(); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("snapshot: syncing WAL: %w", err)
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (w *WAL) Sync() error {
	if w.f == nil {
		return nil
	}
	if !telemetry.Enabled() {
		return w.f.Sync()
	}
	t0 := time.Now()
	err := w.f.Sync()
	telWALFsync.ObserveDuration(time.Since(t0))
	return err
}

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// PlaneOp is one subscription change read back from a log.
type PlaneOp struct {
	// At is the number of frame records that precede the change: replay
	// pushes Frames[:At] before applying it.
	At int
	// Remove unsubscribes IDs[0]; otherwise IDs are subscribed, as one
	// batch, with Cells[i] the key-frame cell ids of IDs[i].
	Remove bool
	IDs    []int
	Cells  [][]uint64
}

// Log is a WAL read back. The zero Log (Version 0) stands for a missing,
// empty or header-truncated file.
type Log struct {
	Version     int
	Fingerprint uint64
	// BaseFrame is the stream frame index of Frames[0].
	BaseFrame int
	// Extends is the Identity of the checkpoint the log continues
	// (version 2; version 1 logs are placed by BaseFrame).
	Extends uint64
	Frames  []uint64
	Plane   []PlaneOp
}

// Empty reports whether the log holds no record.
func (l *Log) Empty() bool { return len(l.Frames) == 0 && len(l.Plane) == 0 }

// Replay walks the records in log order: push receives each run of frames
// that lies between two subscription changes (runs may be empty), apply
// each change. It stops at the first change apply refuses.
func (l *Log) Replay(push func([]uint64), apply func(PlaneOp) error) error {
	pos := 0
	for _, op := range l.Plane {
		push(l.Frames[pos:op.At])
		pos = op.At
		if err := apply(op); err != nil {
			return fmt.Errorf("replaying WAL subscription change after frame %d: %w", l.BaseFrame+op.At, err)
		}
	}
	push(l.Frames[pos:])
	return nil
}

// ReplayWAL reads a WAL file back: its header and its records in log
// order. A torn final record (the footprint of a crash mid-append) is
// silently discarded; anything else malformed is an error. A missing, empty
// or header-truncated file — the footprint of a crash during WAL rotation,
// when the new checkpoint already covers every logged record — replays as
// the zero Log.
func ReplayWAL(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &Log{}, nil
		}
		return nil, fmt.Errorf("snapshot: reading WAL: %w", err)
	}
	l, err := parseLog(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return l, nil
}

func parseLog(data []byte) (*Log, error) {
	if len(data) < walHeaderSize {
		return &Log{}, nil // torn header: rotation crash, checkpoint covers it
	}
	if [4]byte(data[:4]) != WALMagic {
		return nil, fmt.Errorf("not a WAL file")
	}
	l := &Log{
		Version:     int(binary.BigEndian.Uint16(data[4:])),
		Fingerprint: binary.BigEndian.Uint64(data[6:]),
		BaseFrame:   int(binary.BigEndian.Uint64(data[14:])),
	}
	rest := data[walHeaderSize:]
	switch l.Version {
	case 1:
	case 2:
		if len(data) < walHeaderSizeV2 {
			return &Log{}, nil
		}
		l.Extends = binary.BigEndian.Uint64(rest)
		rest = data[walHeaderSizeV2:]
	default:
		return nil, fmt.Errorf("unsupported WAL version %d (this build reads 1 and 2)", l.Version)
	}
	for len(rest) > 0 {
		nrec := len(l.Frames) + len(l.Plane)
		marker := rest[0]
		if marker != walMarker && marker != walMarkerAdd && marker != walMarkerRemove {
			return nil, fmt.Errorf("WAL corrupt at record %d (marker %#02x)", nrec, marker)
		}
		v, n := binary.Uvarint(rest[1:])
		if n == 0 {
			break // torn tail: the crash interrupted this append
		}
		if n < 0 {
			return nil, fmt.Errorf("WAL corrupt at record %d (varint overflows)", nrec)
		}
		if marker == walMarker {
			l.Frames = append(l.Frames, v)
			rest = rest[1+n:]
			continue
		}
		if l.Version < 2 {
			return nil, fmt.Errorf("WAL corrupt at record %d (subscription change in a version 1 log)", nrec)
		}
		body := 1 + n // marker + length
		if v > uint64(len(rest)) || body+int(v)+4 > len(rest) {
			break // torn tail
		}
		end := body + int(v)
		if got, want := crc32.ChecksumIEEE(rest[:end]), binary.BigEndian.Uint32(rest[end:]); got != want {
			return nil, fmt.Errorf("WAL corrupt at record %d (CRC %08x, stored %08x)", nrec, got, want)
		}
		op, err := parsePlaneOp(marker, rest[body:end])
		if err != nil {
			return nil, fmt.Errorf("WAL corrupt at record %d (%v)", nrec, err)
		}
		op.At = len(l.Frames)
		l.Plane = append(l.Plane, op)
		rest = rest[end+4:]
	}
	return l, nil
}

// parsePlaneOp decodes the checksummed payload of an add or remove record.
// Counts are held against the bytes that remain, so a record cannot make
// the reader allocate more than its own length.
func parsePlaneOp(marker byte, p []byte) (PlaneOp, error) {
	fail := func(what string) (PlaneOp, error) {
		return PlaneOp{}, fmt.Errorf("malformed %s", what)
	}
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	id := func() (int, bool) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return int(v), true
	}
	if marker == walMarkerRemove {
		qid, ok := id()
		if !ok || len(p) != 0 {
			return fail("remove record")
		}
		return PlaneOp{Remove: true, IDs: []int{qid}}, nil
	}
	nq, ok := uvarint()
	if !ok || nq > uint64(len(p)) {
		return fail("query count")
	}
	op := PlaneOp{IDs: make([]int, nq), Cells: make([][]uint64, nq)}
	for i := range op.IDs {
		if op.IDs[i], ok = id(); !ok {
			return fail("query id")
		}
		nc, ok := uvarint()
		if !ok || nc > uint64(len(p)) {
			return fail("cell count")
		}
		op.Cells[i] = make([]uint64, nc)
		for j := range op.Cells[i] {
			if op.Cells[i][j], ok = uvarint(); !ok {
				return fail("cell id")
			}
		}
	}
	if len(p) != 0 {
		return fail("add record (trailing bytes)")
	}
	return op, nil
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, rename and a directory fsync, so a crash leaves either the old
// file or the new one — never a torn checkpoint — and a return means the
// new one survives power loss.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	var t0 time.Time
	if timed := telemetry.Enabled(); timed {
		t0 = time.Now()
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	telCkptTotal.Inc()
	if !t0.IsZero() {
		telCkptWrite.ObserveDuration(time.Since(t0))
	}
	return nil
}
