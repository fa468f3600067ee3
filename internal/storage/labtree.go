// Package storage is the RIOTStore substrate [26] the paper uses to store
// blocked matrices: the DAF (Directly Addressable File) format and the
// LAB-tree (Linearized Array B-tree), both keyed by a linearization of the
// block coordinates, with blocks laid out in column-major order (§6). For
// dense matrices the two behave virtually identically, which the storage
// benchmarks verify.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

const (
	pageSize   = 4096
	magic      = 0x4C414254 // "LABT"
	typeNone   = 0
	typeInner  = 1
	typeLeaf   = 2
	typeovflow = 3

	// Leaf entry: key uint64 + overflow page uint32 + byte length uint32.
	leafEntrySize = 16
	leafHeader    = 1 + 2 + 4 // type, nkeys, next-leaf
	maxLeafKeys   = (pageSize - leafHeader) / leafEntrySize

	// Inner node: keys uint64 each, children uint32 each.
	innerHeader  = 1 + 2
	maxInnerKeys = (pageSize - innerHeader - 4) / 12

	ovflowHeader  = 1 + 4 + 2 // type, next page, data length
	ovflowPayload = pageSize - ovflowHeader
)

// SplitPolicy selects how full leaves split on insert.
type SplitPolicy int

const (
	// SplitMiddle halves a full leaf (the textbook policy).
	SplitMiddle SplitPolicy = iota
	// SplitAppend splits at the insertion point when inserting past the
	// last key, leaving the left leaf full — dense sequential loads (the
	// common case when writing array blocks in layout order) then fill
	// every page, one of the LAB-tree design points studied in [26].
	SplitAppend
)

// LABTree is a disk-backed B+tree mapping linearized block indices to
// variable-length block payloads (stored in overflow page chains).
type LABTree struct {
	f      *os.File
	root   uint32
	npages uint32
	free   uint32 // head of the freed-page chain
	policy SplitPolicy
	page   [pageSize]byte // scratch
}

// OpenLABTree opens or creates a LAB-tree file.
func OpenLABTree(path string, policy SplitPolicy) (*LABTree, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	t := &LABTree{f: f, policy: policy}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		// Fresh file: header page + empty root leaf.
		t.npages = 2
		t.root = 1
		leaf := make([]byte, pageSize)
		leaf[0] = typeLeaf
		if err := t.writePage(1, leaf); err != nil {
			f.Close()
			return nil, err
		}
		if err := t.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return t, nil
	}
	hdr := make([]byte, pageSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a LAB-tree file", path)
	}
	t.root = binary.LittleEndian.Uint32(hdr[4:])
	t.npages = binary.LittleEndian.Uint32(hdr[8:])
	t.free = binary.LittleEndian.Uint32(hdr[12:])
	return t, nil
}

func (t *LABTree) writeHeader() error {
	hdr := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], t.root)
	binary.LittleEndian.PutUint32(hdr[8:], t.npages)
	binary.LittleEndian.PutUint32(hdr[12:], t.free)
	return t.writePage(0, hdr)
}

func (t *LABTree) readPage(id uint32, buf []byte) error {
	_, err := t.f.ReadAt(buf[:pageSize], int64(id)*pageSize)
	return err
}

func (t *LABTree) writePage(id uint32, buf []byte) error {
	_, err := t.f.WriteAt(buf[:pageSize], int64(id)*pageSize)
	return err
}

// allocPage returns a fresh or recycled page id.
func (t *LABTree) allocPage() (uint32, error) {
	if t.free != 0 {
		id := t.free
		buf := make([]byte, pageSize)
		if err := t.readPage(id, buf); err != nil {
			return 0, err
		}
		t.free = binary.LittleEndian.Uint32(buf[1:])
		return id, nil
	}
	id := t.npages
	t.npages++
	return id, nil
}

// freePage links a page into the free chain.
func (t *LABTree) freePage(id uint32) error {
	buf := make([]byte, pageSize)
	buf[0] = typeNone
	binary.LittleEndian.PutUint32(buf[1:], t.free)
	t.free = id
	return t.writePage(id, buf)
}

// leaf page accessors.

type leafRef struct {
	buf []byte
}

func (l leafRef) nkeys() int       { return int(binary.LittleEndian.Uint16(l.buf[1:])) }
func (l leafRef) setNKeys(n int)   { binary.LittleEndian.PutUint16(l.buf[1:], uint16(n)) }
func (l leafRef) next() uint32     { return binary.LittleEndian.Uint32(l.buf[3:]) }
func (l leafRef) setNext(p uint32) { binary.LittleEndian.PutUint32(l.buf[3:], p) }
func (l leafRef) key(i int) uint64 {
	return binary.LittleEndian.Uint64(l.buf[leafHeader+i*leafEntrySize:])
}
func (l leafRef) ovflow(i int) uint32 {
	return binary.LittleEndian.Uint32(l.buf[leafHeader+i*leafEntrySize+8:])
}
func (l leafRef) length(i int) uint32 {
	return binary.LittleEndian.Uint32(l.buf[leafHeader+i*leafEntrySize+12:])
}
func (l leafRef) setEntry(i int, key uint64, ov uint32, length uint32) {
	off := leafHeader + i*leafEntrySize
	binary.LittleEndian.PutUint64(l.buf[off:], key)
	binary.LittleEndian.PutUint32(l.buf[off+8:], ov)
	binary.LittleEndian.PutUint32(l.buf[off+12:], length)
}
func (l leafRef) search(key uint64) (int, bool) {
	lo, hi := 0, l.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		k := l.key(mid)
		if k == key {
			return mid, true
		}
		if k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

type innerRef struct {
	buf []byte
}

func (n innerRef) nkeys() int     { return int(binary.LittleEndian.Uint16(n.buf[1:])) }
func (n innerRef) setNKeys(k int) { binary.LittleEndian.PutUint16(n.buf[1:], uint16(k)) }
func (n innerRef) key(i int) uint64 {
	return binary.LittleEndian.Uint64(n.buf[innerHeader+i*8:])
}
func (n innerRef) setKey(i int, k uint64) {
	binary.LittleEndian.PutUint64(n.buf[innerHeader+i*8:], k)
}
func (n innerRef) childOff(i int) int { return innerHeader + maxInnerKeys*8 + i*4 }
func (n innerRef) child(i int) uint32 {
	return binary.LittleEndian.Uint32(n.buf[n.childOff(i):])
}
func (n innerRef) setChild(i int, c uint32) {
	binary.LittleEndian.PutUint32(n.buf[n.childOff(i):], c)
}

// descend returns the child index for a key: the first child whose
// separator key exceeds the search key.
func (n innerRef) descend(key uint64) int {
	lo, hi := 0, n.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		if key < n.key(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// writeChain stores data in an overflow chain, returning the head page.
func (t *LABTree) writeChain(data []byte) (uint32, error) {
	if len(data) == 0 {
		return 0, nil
	}
	// Allocate pages front to back, chaining forward.
	var head, prev uint32
	prevBuf := make([]byte, pageSize)
	for off := 0; off < len(data); off += ovflowPayload {
		id, err := t.allocPage()
		if err != nil {
			return 0, err
		}
		if head == 0 {
			head = id
		} else {
			binary.LittleEndian.PutUint32(prevBuf[1:], id)
			if err := t.writePage(prev, prevBuf); err != nil {
				return 0, err
			}
		}
		end := off + ovflowPayload
		if end > len(data) {
			end = len(data)
		}
		buf := make([]byte, pageSize)
		buf[0] = typeovflow
		binary.LittleEndian.PutUint16(buf[5:], uint16(end-off))
		copy(buf[ovflowHeader:], data[off:end])
		prev, prevBuf = id, buf
	}
	if err := t.writePage(prev, prevBuf); err != nil {
		return 0, err
	}
	return head, nil
}

// readChain reads length bytes from an overflow chain, into out when its
// capacity suffices.
func (t *LABTree) readChain(head uint32, length uint32, out []byte) ([]byte, error) {
	if uint32(cap(out)) < length {
		out = make([]byte, 0, length)
	}
	out = out[:0]
	buf := make([]byte, pageSize)
	for id := head; id != 0; {
		if err := t.readPage(id, buf); err != nil {
			return nil, err
		}
		if buf[0] != typeovflow {
			return nil, fmt.Errorf("storage: page %d is not an overflow page", id)
		}
		n := binary.LittleEndian.Uint16(buf[5:])
		out = append(out, buf[ovflowHeader:ovflowHeader+int(n)]...)
		id = binary.LittleEndian.Uint32(buf[1:])
	}
	if uint32(len(out)) != length {
		return nil, fmt.Errorf("storage: overflow chain length %d, want %d", len(out), length)
	}
	return out, nil
}

// freeChain releases an overflow chain.
func (t *LABTree) freeChain(head uint32) error {
	buf := make([]byte, pageSize)
	for id := head; id != 0; {
		if err := t.readPage(id, buf); err != nil {
			return err
		}
		next := binary.LittleEndian.Uint32(buf[1:])
		if err := t.freePage(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// ErrNotFound is returned by Read for missing keys.
var ErrNotFound = errors.New("storage: key not found")

// Read returns the payload stored under the key, in out when its capacity
// suffices (out may be nil).
func (t *LABTree) Read(key uint64, out []byte) ([]byte, error) {
	id := t.root
	buf := make([]byte, pageSize)
	for {
		if err := t.readPage(id, buf); err != nil {
			return nil, err
		}
		switch buf[0] {
		case typeInner:
			n := innerRef{buf}
			id = n.child(n.descend(key))
		case typeLeaf:
			l := leafRef{buf}
			i, found := l.search(key)
			if !found {
				return nil, ErrNotFound
			}
			return t.readChain(l.ovflow(i), l.length(i), out)
		default:
			return nil, fmt.Errorf("storage: corrupt page %d (type %d)", id, buf[0])
		}
	}
}

// Write inserts or replaces the payload under the key.
func (t *LABTree) Write(key uint64, data []byte) error {
	promoted, newChild, err := t.insert(t.root, key, data)
	if err != nil {
		return err
	}
	if newChild != 0 {
		// Root split: grow the tree by one level.
		id, err := t.allocPage()
		if err != nil {
			return err
		}
		buf := make([]byte, pageSize)
		buf[0] = typeInner
		n := innerRef{buf}
		n.setNKeys(1)
		n.setKey(0, promoted)
		n.setChild(0, t.root)
		n.setChild(1, newChild)
		if err := t.writePage(id, buf); err != nil {
			return err
		}
		t.root = id
	}
	return t.writeHeader()
}

// insert descends into page id; on split it returns the promoted separator
// key and the new right sibling page (0 when no split).
func (t *LABTree) insert(id uint32, key uint64, data []byte) (uint64, uint32, error) {
	buf := make([]byte, pageSize)
	if err := t.readPage(id, buf); err != nil {
		return 0, 0, err
	}
	switch buf[0] {
	case typeInner:
		n := innerRef{buf}
		ci := n.descend(key)
		promoted, newChild, err := t.insert(n.child(ci), key, data)
		if err != nil || newChild == 0 {
			return 0, 0, err
		}
		// Insert separator at position ci.
		k := n.nkeys()
		for i := k; i > ci; i-- {
			n.setKey(i, n.key(i-1))
			n.setChild(i+1, n.child(i))
		}
		n.setKey(ci, promoted)
		n.setChild(ci+1, newChild)
		n.setNKeys(k + 1)
		if k+1 <= maxInnerKeys-1 {
			return 0, 0, t.writePage(id, buf)
		}
		// Split the inner node in half.
		total := k + 1
		mid := total / 2
		upKey := n.key(mid)
		rid, err := t.allocPage()
		if err != nil {
			return 0, 0, err
		}
		rbuf := make([]byte, pageSize)
		rbuf[0] = typeInner
		rn := innerRef{rbuf}
		rk := total - mid - 1
		for i := 0; i < rk; i++ {
			rn.setKey(i, n.key(mid+1+i))
		}
		for i := 0; i <= rk; i++ {
			rn.setChild(i, n.child(mid+1+i))
		}
		rn.setNKeys(rk)
		n.setNKeys(mid)
		if err := t.writePage(id, buf); err != nil {
			return 0, 0, err
		}
		if err := t.writePage(rid, rbuf); err != nil {
			return 0, 0, err
		}
		return upKey, rid, nil
	case typeLeaf:
		l := leafRef{buf}
		i, found := l.search(key)
		if found {
			// Replace: free the old chain, write the new one.
			if err := t.freeChain(l.ovflow(i)); err != nil {
				return 0, 0, err
			}
			ov, err := t.writeChain(data)
			if err != nil {
				return 0, 0, err
			}
			l.setEntry(i, key, ov, uint32(len(data)))
			return 0, 0, t.writePage(id, buf)
		}
		ov, err := t.writeChain(data)
		if err != nil {
			return 0, 0, err
		}
		k := l.nkeys()
		if k < maxLeafKeys {
			for j := k; j > i; j-- {
				l.setEntry(j, l.key(j-1), l.ovflow(j-1), l.length(j-1))
			}
			l.setEntry(i, key, ov, uint32(len(data)))
			l.setNKeys(k + 1)
			return 0, 0, t.writePage(id, buf)
		}
		// Leaf is full: split per policy.
		splitAt := k / 2
		if t.policy == SplitAppend && i == k {
			// Appending past the last key: keep the left leaf full and
			// start a fresh right leaf with just the new entry.
			splitAt = k
		}
		rid, err := t.allocPage()
		if err != nil {
			return 0, 0, err
		}
		rbuf := make([]byte, pageSize)
		rbuf[0] = typeLeaf
		r := leafRef{rbuf}
		// Move entries >= splitAt to the right leaf.
		moved := k - splitAt
		for j := 0; j < moved; j++ {
			r.setEntry(j, l.key(splitAt+j), l.ovflow(splitAt+j), l.length(splitAt+j))
		}
		r.setNKeys(moved)
		r.setNext(l.next())
		l.setNKeys(splitAt)
		l.setNext(rid)
		// Insert the new entry into the proper side.
		if i <= splitAt && !(t.policy == SplitAppend && i == k) {
			ll := l
			kk := ll.nkeys()
			for j := kk; j > i; j-- {
				ll.setEntry(j, ll.key(j-1), ll.ovflow(j-1), ll.length(j-1))
			}
			ll.setEntry(i, key, ov, uint32(len(data)))
			ll.setNKeys(kk + 1)
		} else {
			ri := i - splitAt
			kk := r.nkeys()
			for j := kk; j > ri; j-- {
				r.setEntry(j, r.key(j-1), r.ovflow(j-1), r.length(j-1))
			}
			r.setEntry(ri, key, ov, uint32(len(data)))
			r.setNKeys(kk + 1)
		}
		if err := t.writePage(id, buf); err != nil {
			return 0, 0, err
		}
		if err := t.writePage(rid, rbuf); err != nil {
			return 0, 0, err
		}
		return r.key(0), rid, nil
	default:
		return 0, 0, fmt.Errorf("storage: corrupt page %d (type %d)", id, buf[0])
	}
}

// Delete removes a key (leaf entries are removed without rebalancing, which
// is sufficient for array workloads where deletes are rare).
func (t *LABTree) Delete(key uint64) error {
	id := t.root
	buf := make([]byte, pageSize)
	for {
		if err := t.readPage(id, buf); err != nil {
			return err
		}
		switch buf[0] {
		case typeInner:
			n := innerRef{buf}
			id = n.child(n.descend(key))
		case typeLeaf:
			l := leafRef{buf}
			i, found := l.search(key)
			if !found {
				return ErrNotFound
			}
			if err := t.freeChain(l.ovflow(i)); err != nil {
				return err
			}
			k := l.nkeys()
			for j := i; j < k-1; j++ {
				l.setEntry(j, l.key(j+1), l.ovflow(j+1), l.length(j+1))
			}
			l.setNKeys(k - 1)
			if err := t.writePage(id, buf); err != nil {
				return err
			}
			return t.writeHeader()
		default:
			return fmt.Errorf("storage: corrupt page %d (type %d)", id, buf[0])
		}
	}
}

// Stats reports structural statistics, used by the storage benchmarks.
func (t *LABTree) Stats() (pages uint32, height int, err error) {
	h := 0
	id := t.root
	buf := make([]byte, pageSize)
	for {
		if err := t.readPage(id, buf); err != nil {
			return 0, 0, err
		}
		h++
		if buf[0] == typeLeaf {
			return t.npages, h, nil
		}
		id = innerRef{buf}.child(0)
	}
}

// Sync flushes the file.
func (t *LABTree) Sync() error { return t.f.Sync() }

// Close flushes the header and closes the file.
func (t *LABTree) Close() error {
	if err := t.writeHeader(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}
