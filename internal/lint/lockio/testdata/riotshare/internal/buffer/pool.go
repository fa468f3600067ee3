// Package buffer is a minimized fixture of the PR 9 ReleaseBlock
// stall: a dirty block written back to the store while the pool mutex
// was still held, stalling every concurrent acquire behind one device
// write.
package buffer

import (
	"net"
	"os"
	"sync"

	"riotshare/internal/storage"
)

// Pool is the guarded cache under test.
type Pool struct {
	mu    sync.Mutex
	dirty map[string][]byte

	store storage.Backend
}

// ReleaseBlockStalled is the historical bug shape: write-back inside
// the critical section.
func (p *Pool) ReleaseBlockStalled(key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	data := p.dirty[key]
	delete(p.dirty, key)
	return p.store.WriteBlock(key, 0, 0, data) // want `storage block I/O \(WriteBlock\) while p\.mu is held`
}

// ReleaseBlock is the fixed shape: snapshot under the lock, write
// after dropping it.
func (p *Pool) ReleaseBlock(key string) error {
	p.mu.Lock()
	data := p.dirty[key]
	delete(p.dirty, key)
	p.mu.Unlock()
	return p.store.WriteBlock(key, 0, 0, data)
}

// evictToCap is the pool's eviction shape: it takes the mutex itself
// and releases it around each victim's write-back, so every unlock is
// on this function's timeline.
func (p *Pool) evictToCap() {
	p.mu.Lock()
	for key, data, ok := p.victimLocked(); ok; key, data, ok = p.victimLocked() {
		p.mu.Unlock()
		_ = p.store.WriteBlock(key, 0, 0, data)
		p.mu.Lock()
	}
	p.mu.Unlock()
}

// evictToCapLocked is the same loop run under its caller's lock: the
// unlock releases p.mu, which the analyzer cannot tie to the caller's
// lock, so the write is still I/O under a lock.
func (p *Pool) evictToCapLocked() {
	for key, data, ok := p.victimLocked(); ok; key, data, ok = p.victimLocked() {
		p.mu.Unlock()
		_ = p.store.WriteBlock(key, 0, 0, data) // want `storage block I/O \(WriteBlock\) while the caller's lock is held`
		p.mu.Lock()
	}
}

// victimLocked takes one dirty block out of the pool.
func (p *Pool) victimLocked() (string, []byte, bool) {
	for key, data := range p.dirty {
		delete(p.dirty, key)
		return key, data, true
	}
	return "", nil, false
}

// Fill reads while holding the lock: reads stall the pool just like
// writes.
func (p *Pool) Fill(key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	data, err := p.store.ReadBlock(key, 0, 0) // want `storage block I/O \(ReadBlock\) while p\.mu is held`
	if err != nil {
		return err
	}
	p.dirty[key] = data
	return nil
}

// DropArray holds the lock across storage.Drop.
func (p *Pool) DropArray(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Drop(name) // want `storage Drop while p\.mu is held`
}

// flushLocked documents that its caller holds the pool mutex, so I/O
// inside it is still I/O under a lock.
func (p *Pool) flushLocked(key string) error {
	return p.store.WriteBlock(key, 0, 0, p.dirty[key]) // want `storage block I/O \(WriteBlock\) while the caller's lock is held`
}

// spill is allowed to write asynchronously: the goroutine runs on its
// own timeline after the critical section.
func (p *Pool) spill(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	data := p.dirty[key]
	go func() {
		_ = p.store.WriteBlock(key, 0, 0, data)
	}()
}

// client mirrors the remote client's split-mutex layout: mu guards
// bookkeeping, wmu exists to serialize writers on the shared conn.
type client struct {
	mu      sync.Mutex
	pending map[uint64]chan []byte

	// wmu serializes the write half of conn. //riotvet:iolock — this
	// mutex exists to order frames on the socket.
	wmu  sync.Mutex
	conn net.Conn
}

// send writes under the annotated I/O mutex: compliant by design.
func (c *client) send(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.conn.Write(frame)
	return err
}

// sendTracked takes the bookkeeping mutex across the socket write: the
// data lock is not an I/O lock.
func (c *client) sendTracked(id uint64, frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending[id] = make(chan []byte, 1)
	_, err := c.conn.Write(frame) // want `net\.Conn Write while c\.mu is held`
	return err
}

// journal holds a file write inside a critical section, then shows the
// unlock-first fix and an annotated exception.
func journal(mu *sync.Mutex, f *os.File, line string) error {
	mu.Lock()
	if _, err := f.WriteString(line); err != nil { // want `os\.File WriteString while mu is held`
		mu.Unlock()
		return err
	}
	mu.Unlock()
	if err := f.Sync(); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return f.Sync() //riotvet:allow lockio — single-writer journal, the lock is the flush barrier
}
