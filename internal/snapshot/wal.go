// Write-ahead log. Between checkpoints, everything that changes the
// engine — every cell id pushed into it, every query subscribed or
// unsubscribed — is first written here; recovery replays the log in order
// through the ordinary engine calls.
//
// File layout:
//
//	header  = "VCWL" | version (16 bits) | config fingerprint (64) |
//	          base frame (64) | extends (64, versions 2 and 3)
//	record  = frames | add | remove                     (version 3)
//	        = frame | add | remove                      (versions 1 and 2)
//	frames  = 0xA8 | uvarint len | payload | CRC-32 (IEEE, big-endian)
//	          payload = one uvarint cell id per frame
//	frame   = 0xA5 | uvarint cell id
//	add     = 0xA6 | uvarint len | payload | CRC-32
//	          payload = the query codec's cell entries (queries.go):
//	          uvarint n | n × ( varint id | uvarint cells | cells × uvarint )
//	remove  = 0xA7 | uvarint len | payload | CRC-32
//	          payload = varint id
//	tail    = zero bytes to the end of the file        (version 3)
//
// "extends" is the Identity of the checkpoint the log continues; version 1
// logs (frames only, written by CreateWAL) have no such field and are placed
// against their checkpoint by base frame instead. A plane record carries a
// query's cell ids — a few hundred bytes — never its sketch: replay
// re-derives sketch, index rows and filter keys with the code that built
// them, and a checkpoint's plane is the same encoding. The CRC covers the
// record from its marker. One Append (a batch of frames), one AddQueries
// batch and one removal are each one record, so each lands whole or not
// at all.
//
// Version 3 (CreateWALExtending) is preallocated: the file is created as
// its header followed by zeros, and each record is written in place at the
// log's logical end, so a sync commits the record's data and not a new file
// size. The file's size is therefore not the log's (Size is); a zero byte
// where a record would begin is the end of the log, and a record past the
// preallocated end simply extends the file. Versions 1 and 2 are
// append-only and end where the file ends.
//
// Crash model (Pillai et al., "All File Systems Are Not Created Equal",
// OSDI 2014): what a sync returned for is on disk; of the one write in
// flight, any subset of its 512-byte sectors may have landed, the others
// holding what they held before — zeros past the logical end. A version 3
// log has at most one write in flight, because a write first syncs the
// one before it. So replay reads records until the first that is not whole
// and CRC-valid — a zero byte, a record running past the file's end, a CRC
// mismatch — and discards the rest as a torn tail, unless a whole, CRC-valid
// record begins at any later offset: the crash model cannot leave a whole
// record behind a torn one, so that is corruption. A byte that is neither
// zero nor a record marker where a record should begin, a length varint
// that overflows and a CRC-valid payload that does not parse are
// corruption too. Every record is checksummed because zeros are not
// harmless in a varint: "AC 02" torn to "AC 00" reads as 44.
//
// Versions 1 and 2 keep their rules. A crash can cut such a file anywhere;
// one that ends inside its last record has a torn tail, which replay
// discards: every non-final byte of a varint has its continuation bit set
// and a framed record states its length, so no proper prefix of a record
// reads as a complete one. Anything else malformed — an unknown marker
// (zero included), a checksum mismatch, a payload that does not parse — is
// corruption and fails the replay loudly. Their frame records carry no
// checksum, so a flipped bit inside one replays silently as another cell
// id; the same flip inside a version 3 frames record is refused when a
// record follows it, and ends the log there when none does.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"vdsms/internal/qindex"
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
		"Frames (cell ids) appended to WALs.")
	telWALAdds = telemetry.Default.Counter("vcd_wal_plane_records_total",
		"Subscription-change records appended to WALs.", telemetry.L("op", "add"))
	telWALRemoves = telemetry.Default.Counter("vcd_wal_plane_records_total",
		"Subscription-change records appended to WALs.", telemetry.L("op", "remove"))
	telWALBytes = telemetry.Default.Gauge("vcd_wal_bytes",
		"Size of the most recently written WAL, header and records (a preallocated file is larger); a checkpoint compacts it once it outgrows the checkpoint it extends.")
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
// from version 2 on the identity(8) of the checkpoint the log extends.
const (
	walHeaderSize   = 22
	walHeaderSizeV2 = walHeaderSize + 8
)

// Record markers. In a version 3 log a zero byte where a record should
// begin ends the log; any other byte that is none of the version's markers
// means corruption (not a torn tail) and fails the replay loudly.
const (
	walMarker       = 0xA5 // frame, versions 1 and 2
	walMarkerAdd    = 0xA6
	walMarkerRemove = 0xA7
	walMarkerFrames = 0xA8 // a batch of frames, version 3
)

// A version 3 log is preallocated to the size of the checkpoint it
// extends, the size past which the compaction rule rotates it, and at
// least walMinPrealloc, in whole walPreallocAlign pages; the zeros are
// written in chunks of at most walMinPrealloc bytes.
const (
	walMinPrealloc   = 64 << 10
	walPreallocAlign = 4 << 10
)

// WAL is a log bound to one checkpoint lineage: its header carries the
// configuration fingerprint (replaying into an incompatible engine is
// refused), the stream frame index of its first frame record, and — for
// logs that may hold subscription changes — the identity of the checkpoint
// it extends, which is what decides whether a log found beside a
// checkpoint continues it or predates it.
type WAL struct {
	f       *os.File
	path    string
	version uint16
	buf     []byte
	payload []byte
	size    int64
	// dirty is set by a write and cleared by the sync that makes it
	// durable.
	dirty bool
	// Frames counts the frames (cell ids) appended over the WAL's lifetime.
	Frames int
}

// CreateWAL starts a fresh frames-only (version 1) WAL at path, truncating
// any previous log. A log that may carry subscription changes must name its
// checkpoint — replay refuses them in a version 1 log: use
// CreateWALExtending.
func CreateWAL(path string, fingerprint uint64, baseFrame int) (*WAL, error) {
	return createWAL(path, 1, fingerprint, baseFrame, 0, 0)
}

// CreateWALExtending starts a fresh, preallocated (version 3) WAL at path
// for the checkpoint whose Identity is extends and whose size is
// checkpointBytes, truncating any previous log. Call immediately after that
// checkpoint is durably renamed into place, with baseFrame = its frame
// position.
func CreateWALExtending(path string, fingerprint uint64, baseFrame int, extends uint64, checkpointBytes int64) (*WAL, error) {
	return createWAL(path, 3, fingerprint, baseFrame, extends, checkpointBytes)
}

func createWAL(path string, version uint16, fingerprint uint64, baseFrame int, extends uint64, checkpointBytes int64) (*WAL, error) {
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
	w := &WAL{f: f, path: path, version: version}
	if err := w.fill(hdr, checkpointBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("snapshot: writing WAL header: %w", err)
	}
	if err := w.Sync(); err != nil {
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
	w.grew(len(hdr))
	return w, nil
}

// fill writes the header of a fresh log and, in version 3, the zeros its
// records will be written over: max(checkpointBytes, walMinPrealloc)
// rounded up to whole walPreallocAlign pages.
func (w *WAL) fill(hdr []byte, checkpointBytes int64) error {
	n := int64(len(hdr))
	if w.version >= 3 {
		n = (max(checkpointBytes, walMinPrealloc) + walPreallocAlign - 1) / walPreallocAlign * walPreallocAlign
	}
	chunk := make([]byte, min(n, walMinPrealloc))
	copy(chunk, hdr)
	for off := int64(0); off < n; off += int64(len(chunk)) {
		if _, err := w.f.WriteAt(chunk[:min(int64(len(chunk)), n-off)], off); err != nil {
			return err
		}
		clear(chunk[:len(hdr)])
	}
	w.dirty = true
	return nil
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

// Size returns the log's length in bytes, header included: its logical
// end, where the next record is written. A version 3 file is larger.
func (w *WAL) Size() int64 { return w.size }

// write writes w.buf at the log's end with a single write syscall. In a
// version 3 log it first syncs a write still pending, so that at most one
// write is ever in flight: the reader's tell between a torn tail and
// corruption rests on that.
func (w *WAL) write() error {
	if w.f == nil {
		return fmt.Errorf("snapshot: append to closed WAL")
	}
	if w.version >= 3 && w.dirty {
		if err := w.Sync(); err != nil {
			return fmt.Errorf("snapshot: syncing WAL: %w", err)
		}
	}
	var t0 time.Time
	if timed := telemetry.Enabled(); timed {
		t0 = time.Now()
		defer func() { telWALAppend.ObserveDuration(time.Since(t0)) }()
	}
	w.dirty = true
	if _, err := w.f.WriteAt(w.buf, w.size); err != nil {
		return fmt.Errorf("snapshot: appending to WAL: %w", err)
	}
	w.grew(len(w.buf))
	return nil
}

// appendRecord appends a checksummed record — marker, payload length,
// payload, CRC-32 of all three — to b.
func appendRecord(b []byte, marker byte, payload []byte) []byte {
	start := len(b)
	b = append(b, marker)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// Append logs one batch of cell ids with a single write syscall: in
// version 3 as one frames record, in versions 1 and 2 as one frame record
// per id. Call Sync to make the batch durable.
func (w *WAL) Append(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	w.buf = w.buf[:0]
	if w.version >= 3 {
		w.payload = w.payload[:0]
		for _, id := range ids {
			w.payload = binary.AppendUvarint(w.payload, id)
		}
		w.buf = appendRecord(w.buf, walMarkerFrames, w.payload)
	} else {
		for _, id := range ids {
			w.buf = append(w.buf, walMarker)
			w.buf = binary.AppendUvarint(w.buf, id)
		}
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
	queries := make([]qindex.Query, len(ids))
	for i, id := range ids {
		queries[i] = qindex.Query{ID: id, Length: len(cells[i]), CellIDs: cells[i]}
	}
	if err := w.logPlane(walMarkerAdd, AppendQueries(nil, queries)); err != nil {
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
	w.buf = appendRecord(w.buf[:0], marker, payload)
	if err := w.write(); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("snapshot: syncing WAL: %w", err)
	}
	return nil
}

// Sync flushes written records to stable storage. With no write pending
// it does nothing.
func (w *WAL) Sync() error {
	if w.f == nil || !w.dirty {
		return nil
	}
	var err error
	if !telemetry.Enabled() {
		err = w.f.Sync()
	} else {
		t0 := time.Now()
		err = w.f.Sync()
		telWALFsync.ObserveDuration(time.Since(t0))
	}
	if err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// Close syncs a write still pending and closes the log file.
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
// order. A torn final record (the footprint of a crash mid-write) is
// silently discarded; anything else malformed is an error. A missing,
// empty, header-truncated or all-zero file — the footprint of a crash
// during WAL rotation, when the new checkpoint already covers every logged
// record — replays as the zero Log.
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
	if len(data) < walHeaderSize || allZero(data) {
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
	case 2, 3:
		if len(data) < walHeaderSizeV2 {
			return &Log{}, nil
		}
		l.Extends = binary.BigEndian.Uint64(rest)
		rest = data[walHeaderSizeV2:]
	default:
		return nil, fmt.Errorf("unsupported WAL version %d (this build reads 1 to 3)", l.Version)
	}
	for len(rest) > 0 {
		nrec := len(l.Frames) + len(l.Plane)
		n, err := l.record(rest)
		if err != nil {
			return nil, fmt.Errorf("WAL corrupt at record %d (%v)", nrec, err)
		}
		if n == 0 {
			// Torn tail: the crash interrupted this write. Only one write
			// of a version 3 log is ever in flight, so no whole record
			// can lie behind it.
			if l.Version >= 3 && wholeRecordAfter(rest) {
				return nil, fmt.Errorf("WAL corrupt at record %d (whole records follow a broken one)", nrec)
			}
			break
		}
		rest = rest[n:]
	}
	return l, nil
}

// record reads the record at the head of rest into l and returns its
// length, or 0 if it is not whole: a record running past the end of the
// data, or, in version 3, a zero byte or a CRC mismatch.
func (l *Log) record(rest []byte) (int, error) {
	marker := rest[0]
	switch {
	case marker == 0 && l.Version >= 3:
		return 0, nil // the zero tail
	case marker == walMarker && l.Version < 3:
		v, n := binary.Uvarint(rest[1:])
		if n < 0 {
			return 0, fmt.Errorf("varint overflows")
		}
		if n > 0 {
			l.Frames = append(l.Frames, v)
			n++
		}
		return n, nil
	case marker == walMarkerFrames && l.Version >= 3,
		marker == walMarkerAdd && l.Version >= 2,
		marker == walMarkerRemove && l.Version >= 2:
	case marker == walMarkerAdd || marker == walMarkerRemove:
		return 0, fmt.Errorf("subscription change in a version 1 log")
	default:
		return 0, fmt.Errorf("marker %#02x", marker)
	}
	payload, n, err := framed(rest)
	if err != nil || n == 0 {
		return 0, err
	}
	if !crcValid(rest[:n]) {
		if l.Version >= 3 {
			return 0, nil
		}
		return 0, fmt.Errorf("CRC %08x, stored %08x", crc32.ChecksumIEEE(rest[:n-4]), binary.BigEndian.Uint32(rest[n-4:]))
	}
	if marker == walMarkerFrames {
		for len(payload) > 0 {
			v, k := binary.Uvarint(payload)
			if k <= 0 {
				return 0, fmt.Errorf("malformed frames record")
			}
			l.Frames = append(l.Frames, v)
			payload = payload[k:]
		}
		return n, nil
	}
	op, err := parsePlaneOp(marker, payload)
	if err != nil {
		return 0, err
	}
	op.At = len(l.Frames)
	l.Plane = append(l.Plane, op)
	return n, nil
}

// framed splits the checksummed record at the head of rest into its
// payload and its length, CRC included; a length of 0 means the record
// runs past the end of rest.
func framed(rest []byte) (payload []byte, n int, err error) {
	v, k := binary.Uvarint(rest[1:])
	if k < 0 {
		return nil, 0, fmt.Errorf("varint overflows")
	}
	body := 1 + k // marker + length
	if k == 0 || v > uint64(len(rest)) || body+int(v)+4 > len(rest) {
		return nil, 0, nil
	}
	return rest[body : body+int(v)], body + int(v) + 4, nil
}

// crcValid reports whether a checksummed record's trailing CRC-32 matches
// its bytes.
func crcValid(rec []byte) bool {
	end := len(rec) - 4
	return crc32.ChecksumIEEE(rec[:end]) == binary.BigEndian.Uint32(rec[end:])
}

// wholeRecordAfter reports whether a whole, CRC-valid version 3 record
// begins anywhere in rest past its first byte.
func wholeRecordAfter(rest []byte) bool {
	for i := 1; i < len(rest); i++ {
		if m := rest[i]; m != walMarkerFrames && m != walMarkerAdd && m != walMarkerRemove {
			continue
		}
		if _, n, _ := framed(rest[i:]); n > 0 && crcValid(rest[i:i+n]) {
			return true
		}
	}
	return false
}

// allZero reports whether b holds zeros only: a version 3 log whose
// creation write never landed.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// parsePlaneOp decodes the checksummed payload of an add or remove record.
// An add is the query codec's (ParseQueries), whose counts are held against
// the bytes that remain, so a record cannot make the reader allocate more
// than a small multiple of its own length. A log carries cells only: a
// query given by its sketch is corruption.
func parsePlaneOp(marker byte, p []byte) (PlaneOp, error) {
	if marker == walMarkerRemove {
		qid, n := binary.Varint(p)
		if n <= 0 || n != len(p) {
			return PlaneOp{}, fmt.Errorf("malformed remove record")
		}
		return PlaneOp{Remove: true, IDs: []int{int(qid)}}, nil
	}
	queries, err := ParseQueries(p)
	if err != nil {
		return PlaneOp{}, err
	}
	op := PlaneOp{IDs: make([]int, len(queries)), Cells: make([][]uint64, len(queries))}
	for i, q := range queries {
		if q.CellIDs == nil {
			return PlaneOp{}, fmt.Errorf("query %d logged by its sketch", q.ID)
		}
		op.IDs[i], op.Cells[i] = q.ID, q.CellIDs
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
