package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A DAF read of a block that lies wholly past the end of the file returns
// zeros, like a never-written block in a hole; one the file's end cuts
// through fails rather than fabricate the missing bytes.
func TestDAFReadBeyondEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.daf")
	d, err := OpenDAF(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A block at or past the end of the file was never written: it reads
	// as zeros, even into a buffer that holds old bytes.
	stale := bytes.Repeat([]byte{0xff}, 32)
	if got, err := d.Read(5, stale); err != nil || !bytes.Equal(got, make([]byte, 32)) {
		t.Fatalf("unwritten block past EOF: %v, %v; want 32 zero bytes", got, err)
	}
	// A file cut off partway through a block does not read as zeros.
	if err := d.Write(0, bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(0, nil); err == nil {
		t.Fatal("reading a block cut off by the end of the file should error")
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
