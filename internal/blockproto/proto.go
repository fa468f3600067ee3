// Package blockproto is the wire protocol spoken between the riotblockd
// network block server and the remote-shard client in internal/storage: a
// small length-prefixed binary protocol carrying block I/O (CREATE, READ,
// WRITE, DROP), shard administration (STATS, MANIFEST get/put/del, STAT,
// WIPE), and liveness (PING) over one TCP connection.
//
// Framing. Every request and every response is one frame:
//
//	uint32  length   (big endian; bytes after this field)
//	uint8   version  (ProtoVersion)
//	uint8   opcode   (requests) / status (responses)
//	...     payload  (opcode/status specific)
//
// Responses carry no request identifier: a connection is a strict FIFO
// pipe, the server answers requests in arrival order, and a client that
// pipelines must match responses to requests by order. Integers inside
// payloads are big-endian fixed width; strings and byte blobs are
// uint16/uint32 length-prefixed. A block inside a frame is u32 rows,
// u32 cols and a blob (Enc.Block, Dec.Block) of float64 elements in
// little-endian IEEE-754 bit order, row-major — the same bytes a DAF
// store persists (EncodeBlock and DecodeBlock are the one byte form of a
// block for both). MaxBlockElems is the largest block a frame carries.
//
// The full specification, including versioning rules, lives in
// docs/remote-protocol.md; keep the two in sync.
package blockproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"riotshare/internal/blas"
)

// ProtoVersion is the protocol version stamped into every frame. A peer
// receiving a frame with a different version must reject it with
// StatusBadVersion (servers) or fail the connection (clients): there is no
// negotiation, deploys roll the fleet instead.
const ProtoVersion = 1

// MaxFrameBytes bounds a frame's payload so a corrupt or hostile length
// prefix cannot allocate unbounded memory. 64 MiB comfortably exceeds any
// real block (the paper's largest physical blocks are tens of MB).
const MaxFrameBytes = 64 << 20

// MaxBlockElems bounds a block's elements so that its largest frame — a
// write request carrying a maximal array name — still fits MaxFrameBytes.
// A block server refuses to create arrays of larger blocks, and a result
// stream refuses to encode one.
const MaxBlockElems = (MaxFrameBytes - 2 - math.MaxUint16 - 64) / 8

// Opcodes: the request kinds a block server answers.
const (
	// OpPing is a liveness probe; the response carries no payload.
	OpPing byte = 1
	// OpCreate registers an array's store with Manager.Ensure's rule:
	// name, block/grid shape, logical block bytes, and an "ensure" byte
	// that clients set to 1 and servers ignore.
	OpCreate byte = 2
	// OpRead fetches one block: name, block row, block col → shape +
	// payload.
	OpRead byte = 3
	// OpWrite stores one block: name, block row, block col, shape,
	// payload.
	OpWrite byte = 4
	// OpDrop closes and unregisters an array's store, optionally deleting
	// its file.
	OpDrop byte = 5
	// OpStats snapshots the server's physical I/O counters.
	OpStats byte = 6
	// OpManifest reads, writes, or removes the shard root's MANIFEST.json
	// (sub-op byte: ManifestGet/Put/Del).
	OpManifest byte = 7
	// OpStat reports whether an array's store file exists on disk.
	OpStat byte = 8
	// OpWipe closes an array's store if open and deletes its file —
	// repair's "start from empty" primitive. Wiping an absent store is not
	// an error.
	OpWipe byte = 9
	// 10 is retired (it set a simulated device latency) and never reused.
)

// Manifest sub-operations (first payload byte of OpManifest).
const (
	// ManifestGet returns the manifest bytes, or StatusNotFound.
	ManifestGet byte = 0
	// ManifestPut atomically replaces the manifest.
	ManifestPut byte = 1
	// ManifestDel removes the manifest; removing an absent one succeeds.
	ManifestDel byte = 2
)

// Statuses: the first meaningful byte of every response.
const (
	// StatusOK means the request succeeded; the payload is op-specific.
	StatusOK byte = 0
	// StatusErr is a generic server-side failure; the payload is the error
	// string.
	StatusErr byte = 1
	// StatusUnknownArray means the named array has no registered store.
	StatusUnknownArray byte = 2
	// 3 is retired (OpCreate without ensure hit an already-created array;
	// every create is an ensure) and never reused.
	// StatusBadRequest means the frame decoded but the request is
	// malformed (bad opcode, truncated payload, shape mismatch).
	StatusBadRequest byte = 4
	// StatusNotFound means the requested object (manifest, store file)
	// does not exist.
	StatusNotFound byte = 5
	// StatusBadVersion means the request frame's version byte is not
	// ProtoVersion.
	StatusBadVersion byte = 6
)

// WriteFrame emits one frame (version, kind, e's payload) to w in a single
// Write: the header goes into the room e keeps in front of its payload. kind
// is an opcode on the request path and a status on the response path; a
// nil e is an empty payload. Since the header is written into e, one Enc is
// framed by one goroutine at a time.
func WriteFrame(w io.Writer, kind byte, e *Enc) error {
	if e == nil {
		e = new(Enc)
	}
	frame := e.frame()
	n := len(frame) - frameHeader
	if n+2 > MaxFrameBytes {
		return fmt.Errorf("blockproto: frame payload %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(frame, uint32(n+2))
	frame[4] = ProtoVersion
	frame[5] = kind
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame from r, returning its version, kind (opcode or
// status), and payload. It validates only the length bound — version
// checking is the caller's, so servers can answer a bad version with
// StatusBadVersion instead of hanging up.
func ReadFrame(r io.Reader) (version, kind byte, payload []byte, err error) {
	var hdr [6]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	if n < 2 || n > MaxFrameBytes {
		return 0, 0, nil, fmt.Errorf("blockproto: frame length %d out of range [2, %d]", n, MaxFrameBytes)
	}
	payload = make([]byte, n-2)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[4], hdr[5], payload, nil
}

// frameHeader is a frame's length, version and kind bytes.
const frameHeader = 6

// Enc builds a frame payload: fixed-width big-endian integers,
// length-prefixed strings and blobs. Its buffer keeps room for the frame
// header in front of the payload, so WriteFrame sends both in one Write.
type Enc struct{ buf []byte }

// frame returns the buffer, header room first, allocating it on first use
// with space for a typical request beside the header.
func (e *Enc) frame() []byte {
	if e.buf == nil {
		e.buf = make([]byte, frameHeader, 64)
	}
	return e.buf
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.frame()[frameHeader:] }

// U8 appends one byte.
func (e *Enc) U8(v byte) *Enc { e.buf = append(e.frame(), v); return e }

// U32 appends a big-endian uint32.
func (e *Enc) U32(v uint32) *Enc {
	e.buf = binary.BigEndian.AppendUint32(e.frame(), v)
	return e
}

// I64 appends a big-endian int64 (two's complement).
func (e *Enc) I64(v int64) *Enc {
	e.buf = binary.BigEndian.AppendUint64(e.frame(), uint64(v))
	return e
}

// Str appends a uint16-length-prefixed string (array names, error text).
func (e *Enc) Str(s string) *Enc {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.buf = binary.BigEndian.AppendUint16(e.frame(), uint16(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a uint32-length-prefixed byte blob (block payloads,
// manifest bytes).
func (e *Enc) Blob(b []byte) *Enc {
	e.buf = binary.BigEndian.AppendUint32(e.frame(), uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Block appends a block: u32 rows, u32 cols, then its EncodeBlock bytes
// as a blob. The payload buffer grows once and the elements are encoded
// straight into it.
func (e *Enc) Block(blk *blas.Matrix) *Enc {
	e.buf = slices.Grow(e.frame(), 12+8*len(blk.Data))
	e.U32(uint32(blk.Rows)).U32(uint32(blk.Cols)).U32(uint32(8 * len(blk.Data)))
	e.buf = EncodeBlock(e.buf, blk)
	return e
}

// Dec decodes a frame payload written by Enc. The first decode error
// sticks: every later call returns zero values, and Err reports it.
type Dec struct {
	buf []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("blockproto: truncated payload (want %d bytes, have %d)", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// I64 reads a big-endian int64.
func (d *Dec) I64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// Str reads a uint16-length-prefixed string.
func (d *Dec) Str() string {
	n := d.take(2)
	if n == nil {
		return ""
	}
	return string(d.take(int(binary.BigEndian.Uint16(n))))
}

// Blob reads a uint32-length-prefixed byte blob.
func (d *Dec) Blob() []byte {
	n := d.take(4)
	if n == nil {
		return nil
	}
	ln := binary.BigEndian.Uint32(n)
	if ln > MaxFrameBytes {
		d.err = fmt.Errorf("blockproto: blob length %d exceeds frame limit", ln)
		return nil
	}
	return d.take(int(ln))
}

// Block reads a block written by Enc.Block into a new matrix. A shape
// that does not match the blob's length is a decode error like any other,
// found before anything is allocated for the shape.
func (d *Dec) Block() *blas.Matrix {
	rows, cols, raw := d.U32(), d.U32(), d.Blob()
	if d.err != nil {
		return nil
	}
	blk, err := DecodeBlock(int(rows), int(cols), raw)
	d.err = err
	return blk
}

// EncodeBlock appends blk to dst as little-endian IEEE-754 float64 bits,
// row-major, and returns the extended slice. With DecodeBlock it is the one
// byte form of a block, on the wire and in a DAF store (which appends into
// its own scratch buffers). A block server does not pass a written payload
// through to disk: it decodes it, and its store encodes the block again.
func EncodeBlock(dst []byte, blk *blas.Matrix) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(blk.Data))[:n+8*len(blk.Data)]
	for i, v := range blk.Data {
		binary.LittleEndian.PutUint64(dst[n+i*8:], math.Float64bits(v))
	}
	return dst
}

// DecodeBlock deserializes an EncodeBlock payload into a new rows×cols
// matrix. The shape may come off the wire, so it is checked against the
// payload length — without overflow — before anything is allocated.
func DecodeBlock(rows, cols int, payload []byte) (*blas.Matrix, error) {
	hi, elems := bits.Mul64(uint64(rows), uint64(cols))
	if rows < 0 || cols < 0 || hi != 0 || len(payload)%8 != 0 || elems != uint64(len(payload)/8) {
		return nil, fmt.Errorf("blockproto: block payload %d bytes does not hold a %dx%d block", len(payload), rows, cols)
	}
	blk := blas.NewMatrix(rows, cols)
	for i := range blk.Data {
		blk.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return blk, nil
}
