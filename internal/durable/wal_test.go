package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"holistic/internal/faults"
)

func openForTest(t *testing.T, path string) (*WAL, *Replay) {
	t.Helper()
	w, replay, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	t.Cleanup(func() { w.Close() })
	return w, replay
}

func appendAll(t *testing.T, w *WAL, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := w.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, replay := openForTest(t, path)
	if len(replay.Records) != 0 || replay.Truncated() {
		t.Fatalf("fresh log replayed %d records, truncated=%v", len(replay.Records), replay.Truncated())
	}
	appendAll(t, w, "alpha", "beta", `{"type":"end","job":"j-1"}`)
	w.Close()

	// Reopen: all records replay in order, and appending continues.
	w2, replay2 := openForTest(t, path)
	want := []string{"alpha", "beta", `{"type":"end","job":"j-1"}`}
	if len(replay2.Records) != len(want) {
		t.Fatalf("reopen replayed %d records, want %d", len(replay2.Records), len(want))
	}
	for i, p := range replay2.Records {
		if string(p) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, p, want[i])
		}
	}
	if replay2.Truncated() {
		t.Fatalf("clean log reported a torn tail")
	}
	appendAll(t, w2, "gamma")
	w2.Close()
	_, replay3 := openForTest(t, path)
	if len(replay3.Records) != 4 || string(replay3.Records[3]) != "gamma" {
		t.Fatalf("after reopen+append, replay = %d records (last %q)", len(replay3.Records), replay3.Records[len(replay3.Records)-1])
	}
}

// TestWALTornTailSweep truncates a three-record log at every byte offset
// inside the last record and asserts recovery keeps exactly the records
// before the tear, drops the tail, and leaves an appendable log.
func TestWALTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.wal")
	w, _ := openForTest(t, ref)
	appendAll(t, w, "first-record", "second-record", "third-record")
	w.Close()
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets: frame = 8-byte header + payload.
	rec3Start := 2*frameHeaderBytes + len("first-record") + len("second-record")
	for cut := rec3Start; cut < len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, replay := openForTest(t, path)
		if len(replay.Records) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(replay.Records))
		}
		if cut > rec3Start && !replay.Truncated() {
			t.Fatalf("cut at %d: torn tail not reported", cut)
		}
		// The log must be usable after truncation.
		appendAll(t, w, "post-tear")
		w.Close()
		_, replay2 := openForTest(t, path)
		if len(replay2.Records) != 3 || string(replay2.Records[2]) != "post-tear" {
			t.Fatalf("cut at %d: post-tear replay has %d records", cut, len(replay2.Records))
		}
	}
}

// TestWALTornTailGarbage models a crash that extended the file with garbage
// past the last record (metadata landed, data didn't): the garbage tail is
// dropped, the real records survive.
func TestWALTornTailGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.wal")
	w, _ := openForTest(t, path)
	appendAll(t, w, "kept")
	w.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// An implausible length prefix (0xffffffff...) that runs past EOF.
	if _, err := f.Write(bytes.Repeat([]byte{0xff}, 13)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, replay := openForTest(t, path)
	if len(replay.Records) != 1 || string(replay.Records[0]) != "kept" {
		t.Fatalf("replay = %v", replay.Records)
	}
	if replay.TruncatedBytes != 13 {
		t.Fatalf("TruncatedBytes = %d, want 13", replay.TruncatedBytes)
	}
}

// TestWALMidFileCorruption flips a payload byte of the first record: with
// complete frames after it, Open must refuse with ErrCorrupt instead of
// silently truncating two good records away.
func TestWALMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	w, _ := openForTest(t, path)
	appendAll(t, w, "first-record", "second-record")
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderBytes] ^= 0xff // first payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenWAL(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenWAL on mid-file corruption: err = %v, want ErrCorrupt", err)
	}
	// Same flip on the LAST record is a torn tail, not corruption.
	data[frameHeaderBytes] ^= 0xff // restore record 1
	data[2*frameHeaderBytes+len("first-record")+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, replay := openForTest(t, path)
	if len(replay.Records) != 1 || !replay.Truncated() {
		t.Fatalf("tail corruption: %d records, truncated=%v", len(replay.Records), replay.Truncated())
	}
	w2.Close()
}

func TestWALAppendFaultLeavesNoPartialFrame(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "fault.wal")
	w, _ := openForTest(t, path)
	appendAll(t, w, "before")
	faults.Enable(faults.WALAppend, faults.ModeError, 1)
	if err := w.Append([]byte("dropped")); err == nil || !errors.As(err, new(*faults.Error)) {
		t.Fatalf("Append under wal.append fault: err = %v, want injected", err)
	}
	appendAll(t, w, "after")
	w.Close()
	_, replay := openForTest(t, path)
	got := make([]string, len(replay.Records))
	for i, p := range replay.Records {
		got[i] = string(p)
	}
	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Fatalf("replay after injected append failure = %v", got)
	}
	if replay.Truncated() {
		t.Fatalf("injected append failure left a torn tail")
	}
}

func TestWALFsyncFaultReportsError(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "fsync.wal")
	w, _ := openForTest(t, path)
	faults.Enable(faults.WALFsync, faults.ModeError, 1)
	err := w.Append([]byte("unsynced"))
	if err == nil || !errors.As(err, new(*faults.Error)) {
		t.Fatalf("Append under wal.fsync fault: err = %v, want the injected error", err)
	}
	if !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("fsync fault error %q does not name fsync", err)
	}
}

func TestWALConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.wal")
	w, _ := openForTest(t, path)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w.Close()
	_, replay := openForTest(t, path)
	if len(replay.Records) != 160 {
		t.Fatalf("replayed %d records, want 160", len(replay.Records))
	}
}

func TestWALAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.wal")
	w, _ := openForTest(t, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("late")); err == nil {
		t.Fatalf("Append after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
