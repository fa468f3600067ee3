package storage

import (
	"os"
	"path/filepath"
	"testing"
)

// Opening a non-LAB-tree file must fail cleanly, not corrupt state.
func TestLABTreeBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.lab")
	if err := os.WriteFile(path, make([]byte, pageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLABTree(path, SplitMiddle); err == nil {
		t.Fatal("bad magic should be rejected")
	}
}

// A truncated LAB-tree file (header only, missing root page) must surface
// an I/O error on access instead of panicking.
func TestLABTreeTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.lab")
	tr, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	// Truncate to just the header.
	if err := os.Truncate(path, pageSize); err != nil {
		t.Fatal(err)
	}
	tr2, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if _, err := tr2.Read(1, nil); err == nil {
		t.Fatal("reading a truncated tree should error")
	}
}

// Corrupting a page type byte must yield a corruption error, not wrong data.
func TestLABTreeCorruptPageType(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.lab")
	tr, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(7, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Page 1 is the root leaf; smash its type byte.
	if _, err := f.WriteAt([]byte{0xFF}, pageSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tr2, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if _, err := tr2.Read(7, nil); err == nil {
		t.Fatal("corrupt page should error")
	}
}

// Deleting then rewriting must recycle freed overflow pages (the file does
// not grow without bound under update churn).
func TestLABTreePageRecycling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.lab")
	tr, err := OpenLABTree(path, SplitMiddle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	payload := make([]byte, 3*ovflowPayload) // three overflow pages
	if err := tr.Write(1, payload); err != nil {
		t.Fatal(err)
	}
	pagesAfterFirst := tr.npages
	for i := 0; i < 20; i++ {
		if err := tr.Write(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if tr.npages > pagesAfterFirst+1 {
		t.Fatalf("update churn leaked pages: %d -> %d", pagesAfterFirst, tr.npages)
	}
}

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
