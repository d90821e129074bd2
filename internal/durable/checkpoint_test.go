package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holistic/internal/faults"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.ckpt")
	payload := []byte(`{"version":3,"snapshot":{}}`)
	if err := WriteCheckpoint(path, payload); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	// Overwrite is atomic and replaces the content.
	if err := WriteCheckpoint(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadCheckpoint(path); string(got) != "v2" {
		t.Fatalf("after overwrite payload = %q", got)
	}
	leftovers(t, filepath.Dir(path))
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.ckpt")
	if err := WriteCheckpoint(path, []byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"flipped payload byte": func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[len(d)-2] ^= 0xff
			return d
		},
		"truncated":  func(d []byte) []byte { return d[:len(d)-3] },
		"no magic":   func(d []byte) []byte { return append([]byte("XXXXXXXX"), d[8:]...) },
		"empty file": func(d []byte) []byte { return nil },
	} {
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestCheckpointMissingIsNotExist(t *testing.T) {
	_, err := ReadCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !os.IsNotExist(err) {
		t.Fatalf("err = %v, want IsNotExist", err)
	}
}

// TestCheckpointRenameFault proves the atomicity contract under an injected
// rename failure: the previous checkpoint is untouched and no temp file
// leaks.
func TestCheckpointRenameFault(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.ckpt")
	if err := WriteCheckpoint(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.CheckpointRename, faults.ModeError, 1)
	err := WriteCheckpoint(path, []byte("new"))
	if err == nil || !errors.As(err, new(*faults.Error)) {
		t.Fatalf("WriteCheckpoint under rename fault: err = %v, want injected", err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("after failed rename: payload %q err %v, want old intact", got, err)
	}
	leftovers(t, dir)
}

// leftovers fails the test if the directory holds any *.tmp-* residue.
func leftovers(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
