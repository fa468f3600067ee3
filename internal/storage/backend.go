package storage

import (
	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

// Backend is the block-storage abstraction the rest of the system runs
// over: array registration, physical block I/O, retirement, and physical
// I/O counters. *Manager is the single-directory
// implementation; *ShardedManager stripes blocks across several shard
// directories (stand-ins for devices) behind the same interface, so the
// buffer pool, the execution engines, and the multi-query server are
// placement-agnostic.
type Backend interface {
	// Create opens (or reopens) the store for an array.
	Create(arr *prog.Array) error
	// CreateAll opens the stores for every array of a program.
	CreateAll(p *prog.Program) error
	// WriteBlock stores one block.
	WriteBlock(array string, r, c int64, blk *blas.Matrix) error
	// ReadBlock fetches one block; concurrent reads of the same block
	// coalesce onto one physical request.
	ReadBlock(array string, r, c int64) (*blas.Matrix, error)
	// Drop closes and unregisters one array's store, optionally deleting
	// its file(s).
	Drop(array string, deleteFile bool) error
	// Stats snapshots the physical I/O performed since creation.
	Stats() Stats
	// Close closes every store.
	Close() error
}

var (
	_ Backend = (*Manager)(nil)
	_ Backend = (*ShardedManager)(nil)
)
