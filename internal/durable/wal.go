// Package durable is the crash-safety substrate of the profiling service: a
// write-ahead log of length-prefixed, CRC32C-checksummed, fsync'd records,
// plus atomic checkpoint files written with the temp-file+fsync+rename
// pattern. Together they let the server journal every state transition cheap
// enough to fsync per record and compact accumulated state into checkpoints
// that are either the old file or the new one, never a torn mixture.
//
// The WAL's recovery contract distinguishes the two ways a log can be bad:
//
//   - A torn tail — the last record is incomplete or fails its checksum and
//     nothing follows it — is the expected residue of a crash mid-append.
//     Open truncates the log at the first bad record and reports how many
//     bytes it dropped; everything before the tear replays normally.
//   - Mid-file corruption — a record fails its checksum but complete frames
//     follow it — cannot come from a torn write. Open refuses to replay past
//     it and returns ErrCorrupt: silently skipping records would resurrect a
//     state the log never held.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"holistic/internal/faults"
)

// Record frame layout: a fixed 8-byte header — payload length then CRC32C
// (Castagnoli) of the payload, both little-endian uint32 — followed by the
// payload bytes.
const frameHeaderBytes = 8

// MaxRecordBytes bounds a single WAL record's payload. A length prefix above
// it can only be garbage (a torn or corrupted header), never a real record.
const MaxRecordBytes = 64 << 20

// castagnoli is the CRC32C table shared by WAL records, checkpoints and
// snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports mid-file corruption: a record failed its checksum with
// complete frames after it, which a torn write cannot produce.
var ErrCorrupt = errors.New("durable: corrupt record before end of log")

// Replay is what OpenWAL found in an existing log.
type Replay struct {
	// Records holds the payloads of every valid record, in append order.
	Records [][]byte
	// TruncatedBytes is the size of the torn tail dropped from the log
	// (0 when the log ended cleanly).
	TruncatedBytes int64
}

// Truncated reports whether a torn tail was dropped during open.
func (r *Replay) Truncated() bool { return r.TruncatedBytes > 0 }

// WAL is an append-only write-ahead log. Append is safe for concurrent use;
// a WAL assumes it is the only writer of its file.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool
}

// OpenWAL opens (creating if necessary) the log at path, replays its
// records, truncates a torn tail, and positions the log for appending.
// Mid-file corruption fails the open with an error wrapping ErrCorrupt.
func OpenWAL(path string) (*WAL, *Replay, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}

	replay := &Replay{}
	off := 0
	for {
		payload, next, err := nextRecord(data, off)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if next < 0 { // torn tail (or clean EOF when off == len(data))
			break
		}
		replay.Records = append(replay.Records, payload)
		off = next
	}
	if off < len(data) {
		replay.TruncatedBytes = int64(len(data) - off)
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(off), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, path: path}
	return w, replay, nil
}

// nextRecord decodes the record starting at off. It returns the payload and
// the offset of the following record, next == -1 for a clean EOF or a torn
// tail (the caller truncates at off), and an error for mid-file corruption.
func nextRecord(data []byte, off int) (payload []byte, next int, err error) {
	rem := len(data) - off
	if rem < frameHeaderBytes {
		return nil, -1, nil // clean EOF (rem == 0) or torn header
	}
	length := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if length > MaxRecordBytes {
		// A garbage length field. If the claimed frame runs past EOF this is
		// indistinguishable from a torn header; otherwise the file holds
		// bytes no sane writer produced.
		if int64(length) > int64(rem-frameHeaderBytes) {
			return nil, -1, nil
		}
		return nil, 0, fmt.Errorf("%w: implausible record length %d at offset %d", ErrCorrupt, length, off)
	}
	end := off + frameHeaderBytes + int(length)
	if end > len(data) {
		return nil, -1, nil // torn payload
	}
	payload = data[off+frameHeaderBytes : end]
	if crc32.Checksum(payload, castagnoli) != crc {
		if end == len(data) {
			// The frame is the last thing in the file: a crash can extend a
			// file with garbage or zero blocks before the payload write
			// lands, so a tail checksum failure is a torn write.
			return nil, -1, nil
		}
		return nil, 0, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
	}
	return append([]byte(nil), payload...), end, nil
}

// Append frames payload, writes it in a single call, and fsyncs. An error
// means the record must be treated as not accepted: either nothing was
// written (write failure, injected wal.append fault) or its durability is
// unknown (fsync failure) — in both cases the safe reading is "not durable".
func (w *WAL) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecordBytes)
	}
	frame := make([]byte, frameHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderBytes:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: append to closed wal %s", w.path)
	}
	if err := faults.Inject(faults.WALAppend); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	if err := faults.Inject(faults.WALFsync); err != nil {
		return fmt.Errorf("wal fsync: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal fsync: %w", err)
	}
	return nil
}

// Close closes the log file. Appends after Close fail; Close is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// syncDir fsyncs a directory so a just-created or just-renamed entry survives
// a crash. Best-effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// AtomicWriteFile writes a file via a temp file in the same directory,
// fsyncs it, and renames it over path, so readers only ever observe the old
// content or the complete new content. The write callback receives the open
// temp file; on any failure the temp file is removed.
func AtomicWriteFile(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := faults.Inject(faults.CheckpointRename); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("rename %s: %w", path, err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	syncDir(dir)
	return nil
}
