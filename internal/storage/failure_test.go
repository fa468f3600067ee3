package storage

import (
	"path/filepath"
	"testing"
)

// DAF reads of never-written blocks must fail rather than fabricate data
// beyond EOF.
func TestDAFReadBeyondEOF(t *testing.T) {
	d, err := OpenDAF(filepath.Join(t.TempDir(), "a.daf"), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Read(5, nil); err == nil {
		t.Fatal("reading an unwritten DAF block should error")
	}
}

// Sparse DAF writes are addressable: writing block 7 then reading it back
// works even though blocks 0-6 were never written.
func TestDAFSparse(t *testing.T) {
	d, err := OpenDAF(filepath.Join(t.TempDir(), "a.daf"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	data := []byte("0123456789abcdef")
	if err := d.Write(7, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(7, nil)
	if err != nil || string(got) != string(data) {
		t.Fatalf("sparse read failed: %q %v", got, err)
	}
}
