// Fleet checkpoint/restore. A fleet checkpoint stores the shared query
// plane ONCE (the saved query set core.QuerySet.Save produces: each
// query's cells, in the query codec of internal/snapshot) followed by one
// per-stream delta: a standard engine checkpoint with its Queries section
// stripped. That keeps the durable form aligned with the runtime memory
// model — plane O(queries), streams O(streams) — where embedding the query
// list in every stream's blob would serialise it a thousand times.
//
// Container layout (big-endian):
//
//	magic "VFLT" | format version (u16)
//	u32 plane-blob length | plane blob (core.QuerySet.Save: "VQS2")
//	u32 stream count
//	per stream, id-sorted: u16 id length | id bytes |
//	                       u32 blob length | snapshot checkpoint blob
//
// Each stream blob is a full internal/snapshot checkpoint, so it inherits
// that format's fingerprint and trailer integrity checks; the container
// adds only framing, and nothing follows its last stream. Streams are
// written id-sorted and every nested codec is canonical, so identical
// fleet state serialises to identical bytes.
// Version 1 is the same container around a "VQS1" plane blob of sketches;
// Restore still reads it. Either way the plane is loaded under the
// caller's K and seed, and a blob naming others is refused before one
// query is read.
package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"vdsms/internal/core"
	"vdsms/internal/snapshot"
)

// FleetMagic identifies a fleet checkpoint container.
var FleetMagic = [4]byte{'V', 'F', 'L', 'T'}

// FleetFormatVersion is the current container version; Restore reads
// version 1 too.
const FleetFormatVersion = 2

// Checkpoint writes the fleet's full state. The pool must be quiescent:
// Checkpoint drains every stream first, but producers have to pause
// pushing (and query churn must pause) for the drain to terminate and the
// plane/stream sections to be mutually consistent. meta carries the
// pipeline-level parameters stamped into each stream blob (zero for bare
// cell-id fleets).
func (p *Pool) Checkpoint(w io.Writer, meta snapshot.Meta) error {
	p.Drain()

	var plane bytes.Buffer
	if err := p.qs.Save(&plane); err != nil {
		return fmt.Errorf("fleet: save query plane: %w", err)
	}
	if _, err := w.Write(FleetMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint16(FleetFormatVersion)); err != nil {
		return err
	}
	if err := writeBlob(w, plane.Bytes()); err != nil {
		return err
	}

	ids := p.StreamIDs()
	if err := binary.Write(w, binary.BigEndian, uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		s := p.Stream(id)
		if s == nil { // detached between listing and export
			return fmt.Errorf("fleet: stream %q detached during checkpoint", id)
		}
		s.emu.Lock()
		st := s.eng.ExportState()
		s.emu.Unlock()
		// The shared plane blob is the single source of query truth.
		st.Queries = nil

		var blob bytes.Buffer
		if err := snapshot.Write(&blob, &snapshot.Checkpoint{Meta: meta, Engine: *st}); err != nil {
			return fmt.Errorf("fleet: stream %q: %w", id, err)
		}
		if len(id) > 0xffff {
			return fmt.Errorf("fleet: stream id %q too long", id)
		}
		if err := binary.Write(w, binary.BigEndian, uint16(len(id))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, id); err != nil {
			return err
		}
		if err := writeBlob(w, blob.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Restore rebuilds a pool from a fleet checkpoint: the shared plane is
// loaded once and every stream joins it via core.RestoreEngineWith.
// cfg.Engine must be detection-compatible with the checkpointed
// configuration (each stream blob's fingerprint is checked) and meta must
// match the value the checkpoint was taken with. r must end where the
// container does: a byte after the last stream is refused.
func Restore(cfg Config, r io.Reader, meta snapshot.Meta) (*Pool, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("fleet: read magic: %w", err)
	}
	if magic != FleetMagic {
		return nil, fmt.Errorf("fleet: bad magic %q", magic[:])
	}
	var version uint16
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return nil, err
	}
	if version != 1 && version != FleetFormatVersion {
		return nil, fmt.Errorf("fleet: unsupported format version %d", version)
	}

	// The plane is read from the container as it arrives, so that a header
	// naming another K or seed is refused before the body is read.
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, fmt.Errorf("fleet: read query plane: %w", err)
	}
	plane := &io.LimitedReader{R: r, N: int64(n)}
	qs, err := core.LoadQuerySet(cfg.Engine, plane)
	if err == nil && plane.N != 0 {
		err = fmt.Errorf("%d bytes past the saved set", plane.N)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: load query plane: %w", err)
	}
	p, err := NewWith(cfg, qs)
	if err != nil {
		return nil, err
	}
	if err := p.restoreStreams(r, meta); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// restoreStreams attaches the streams of the rest of a fleet container to
// p, and refuses a byte after the last one.
func (p *Pool) restoreStreams(r io.Reader, meta snapshot.Meta) error {
	var count uint32
	if err := binary.Read(r, binary.BigEndian, &count); err != nil {
		return err
	}
	for range count {
		var idLen uint16
		if err := binary.Read(r, binary.BigEndian, &idLen); err != nil {
			return err
		}
		id := make([]byte, idLen)
		if _, err := io.ReadFull(r, id); err != nil {
			return err
		}
		if err := p.restoreStream(string(id), r, meta); err != nil {
			return fmt.Errorf("fleet: stream %q: %w", id, err)
		}
	}
	var more [1]byte
	switch _, err := io.ReadFull(r, more[:]); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("fleet: bytes past the last stream")
	default:
		return err
	}
}

// restoreStream reads one stream's checkpoint blob and attaches it as id.
func (p *Pool) restoreStream(id string, r io.Reader, meta snapshot.Meta) error {
	blob, err := readBlob(r)
	if err != nil {
		return err
	}
	ck, err := snapshot.Read(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	// Config compatibility (fingerprint fields) is checked inside
	// RestoreEngineWith; the container only needs the Meta comparison.
	if err := snapshot.CompatibilityError(ck.Meta, meta, ck.Engine.Config, ck.Engine.Config); err != nil {
		return err
	}
	eng, err := core.RestoreEngineWith(p.cfg.Engine, &ck.Engine, p.qs)
	if err != nil {
		return err
	}
	_, err = p.attach(id, eng)
	return err
}

func writeBlob(w io.Writer, b []byte) error {
	if err := binary.Write(w, binary.BigEndian, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readBlob reads a length-prefixed blob. Its buffer grows with the bytes
// that arrive, not to the declared length, so a length the input cannot
// back (up to 4 GiB) costs no more than the input; a short blob fails as
// io.ReadFull does.
func readBlob(r io.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Grow(int(min(n, 64<<10)))
	switch got, err := b.ReadFrom(io.LimitReader(r, int64(n))); {
	case err != nil:
		return nil, err
	case got == 0 && n > 0:
		return nil, io.EOF
	case got < int64(n):
		return nil, io.ErrUnexpectedEOF
	}
	return b.Bytes(), nil
}
