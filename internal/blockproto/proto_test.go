package blockproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"testing"

	"riotshare/internal/blas"
)

// Every Enc writer has a Dec reader that returns the same value.
func TestEncDecRoundTrip(t *testing.T) {
	long := strings.Repeat("n", math.MaxUint16+10)
	blob := []byte{0, 1, 2, 0xff}
	blk := blas.NewMatrix(2, 3)
	copy(blk.Data, []float64{1, -2.5, math.Inf(1), math.Copysign(0, -1), math.Float64frombits(0x7ff8dead), 6})
	e := new(Enc).U8(7).U32(math.MaxUint32).I64(-42).Str("q3.E with space").Str("").Str(long).Blob(blob).Blob(nil)
	n := len(e.Bytes())
	e.Block(blk)
	// A block is u32 rows, u32 cols, then its EncodeBlock bytes as a blob.
	if want := new(Enc).U32(2).U32(3).Blob(EncodeBlock(nil, blk)).Bytes(); !bytes.Equal(e.Bytes()[n:], want) {
		t.Errorf("Block wrote % x, want % x", e.Bytes()[n:], want)
	}
	d := NewDec(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U32(); v != math.MaxUint32 {
		t.Errorf("U32 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Str(); v != "q3.E with space" {
		t.Errorf("Str = %q", v)
	}
	if v := d.Str(); v != "" {
		t.Errorf("empty Str = %q", v)
	}
	if v := d.Str(); v != long[:math.MaxUint16] {
		t.Errorf("over-long Str decoded %d bytes, want it truncated to %d", len(v), math.MaxUint16)
	}
	if v := d.Blob(); !bytes.Equal(v, blob) {
		t.Errorf("Blob = %v", v)
	}
	if v := d.Blob(); len(v) != 0 {
		t.Errorf("empty Blob = %v", v)
	}
	if v := d.Block(); v == nil || v.Rows != 2 || v.Cols != 3 || !bytes.Equal(EncodeBlock(nil, v), EncodeBlock(nil, blk)) {
		t.Errorf("Block = %v", v)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// The first truncation sticks: later reads return zero values even where
// bytes remain, and Err keeps reporting the first failure.
func TestDecTruncationSticks(t *testing.T) {
	d := NewDec([]byte{0, 0, 0, 0, 0, 0, 0, 9, 1}) // one I64, then one stray byte
	if v := d.I64(); v != 9 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.U32(); v != 0 {
		t.Errorf("truncated U32 = %d, want 0", v)
	}
	first := d.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated") {
		t.Fatalf("Err = %v, want a truncation error", first)
	}
	if v := d.U8(); v != 0 {
		t.Errorf("U8 after truncation = %d, want 0 although a byte remains", v)
	}
	if v := d.Str(); v != "" {
		t.Errorf("Str after truncation = %q", v)
	}
	if d.Err() != first {
		t.Errorf("Err changed to %v after later reads", d.Err())
	}

	// A block whose shape does not match its blob is an error that sticks
	// the same way.
	d = NewDec(append(new(Enc).U32(2).U32(2).Blob(make([]byte, 8)).Bytes(), 5))
	if blk := d.Block(); blk != nil || d.Err() == nil {
		t.Errorf("mis-shaped Block = %v, %v; want nil and an error", blk, d.Err())
	}
	if v := d.U8(); v != 0 {
		t.Errorf("U8 after a bad block = %d, want 0 although a byte remains", v)
	}

	// A blob whose length prefix claims more than the frame limit fails
	// without reading on.
	d = NewDec(binary.BigEndian.AppendUint32(nil, MaxFrameBytes+1))
	if b := d.Blob(); b != nil || d.Err() == nil {
		t.Errorf("over-limit Blob = %v, %v; want nil and an error", b, d.Err())
	}
}

// A block frame — name, block row, block col, block: the result stream's
// block frame and a write request alike — copies the block once, into a
// buffer grown once, and is written from that buffer, header included. For
// a 32×32 block (8 KiB of elements) that is 2 allocations (the first
// buffer and its one growth) and under 1.3× the element bytes; a second
// copy of the block would need 2×, a separate header a third allocation.
func TestBlockFramePayloadCopiesTheBlockOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	blk := blas.NewMatrix(32, 32)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		var e Enc
		e.Str("E").I64(0).I64(0).Block(blk)
		if err := WriteFrame(io.Discard, OpWrite, &e); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
	elems := float64(8 * len(blk.Data))
	if allocs > 2 || perFrame >= 1.3*elems {
		t.Errorf("a %dx%d block frame: %.0f allocations, %.0f bytes (%.2fx its %.0f element bytes); want <= 2 and < 1.3x",
			blk.Rows, blk.Cols, allocs, perFrame, perFrame/elems, elems)
	}
}

// header builds a frame header with the given length field.
func header(n uint32, kind byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), ProtoVersion, kind)
}

// Frame lengths outside [2, MaxFrameBytes] are refused on read, payloads
// over the limit on write; everything in range round-trips.
func TestFrameLengthBounds(t *testing.T) {
	for _, n := range []uint32{0, 1, MaxFrameBytes + 1, math.MaxUint32} {
		if _, _, _, err := ReadFrame(bytes.NewReader(header(n, OpPing))); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ReadFrame(length %d) = %v, want an out-of-range error", n, err)
		}
	}
	// A frame whose body is short of its length is an I/O error, not a
	// frame.
	if _, _, _, err := ReadFrame(bytes.NewReader(append(header(10, OpRead), 1, 2))); err != io.ErrUnexpectedEOF {
		t.Errorf("short frame body: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// A blob of MaxFrameBytes-5 bytes is a payload of MaxFrameBytes-1.
	if err := WriteFrame(io.Discard, OpWrite, new(Enc).Blob(make([]byte, MaxFrameBytes-5))); err == nil {
		t.Error("WriteFrame accepted a payload over the frame limit")
	}

	for _, e := range []*Enc{nil, new(Enc), new(Enc).U8(1), new(Enc).Blob(bytes.Repeat([]byte{0xab}, 1000))} {
		var payload []byte
		if e != nil {
			payload = append(payload, e.Bytes()...)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, StatusNotFound, e); err != nil {
			t.Fatal(err)
		}
		version, kind, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if version != ProtoVersion || kind != StatusNotFound || !bytes.Equal(got, payload) || buf.Len() != 0 {
			t.Errorf("frame of %d bytes came back as v%d kind %d payload %d bytes, %d left over",
				len(payload), version, kind, len(got), buf.Len())
		}
	}
}

// countingWriter counts the Write calls it receives and keeps the bytes.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A frame reaches its writer in one Write, header and payload together, so
// an unbuffered connection pays one write syscall per request or reply. The
// bytes are the header, then the payload, and framing an Enc twice (a
// retried request) sends the same bytes twice.
func TestWriteFrameIsOneWrite(t *testing.T) {
	blk := blas.NewMatrix(4, 4)
	for i := range blk.Data {
		blk.Data[i] = float64(i)
	}
	for _, e := range []*Enc{nil, new(Enc).Str("A").I64(1).I64(2), new(Enc).Str("A").I64(0).I64(0).Block(blk)} {
		var w countingWriter
		for range 2 {
			if err := WriteFrame(&w, OpWrite, e); err != nil {
				t.Fatal(err)
			}
		}
		var payload []byte
		if e != nil {
			payload = e.Bytes()
		}
		frame := append(header(uint32(len(payload)+2), OpWrite), payload...)
		if w.writes != 2 || !bytes.Equal(w.Bytes(), append(frame, frame...)) {
			t.Errorf("%d-byte payload framed twice: %d writes, bytes % x; want 2 writes of % x",
				len(payload), w.writes, w.Bytes(), frame)
		}
	}
}

// Blocks round-trip bit-identically, NaN payloads and negative zero
// included; a shape that does not match the payload is refused before
// anything is allocated for it.
func TestDecodeBlock(t *testing.T) {
	blk := blas.NewMatrix(2, 3)
	copy(blk.Data, []float64{1, -2.5, math.Inf(1), math.Copysign(0, -1), math.Float64frombits(0x7ff8dead), 6})
	got, err := DecodeBlock(2, 3, EncodeBlock(nil, blk))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 2 || got.Cols != 3 {
		t.Fatalf("decoded %dx%d", got.Rows, got.Cols)
	}
	for i := range blk.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(blk.Data[i]) {
			t.Errorf("element %d bits %x, want %x", i, math.Float64bits(got.Data[i]), math.Float64bits(blk.Data[i]))
		}
	}

	for _, c := range []struct {
		rows, cols int
		n          int
	}{
		{math.MaxUint32, math.MaxUint32, 8}, // wire maximum; rows*cols wraps int64
		{1 << 32, 1 << 32, 0},               // rows*cols wraps uint64 to 0
		{-1, -1, 8},
		{-1, 0, 0},
		{2, 3, 40},
		{2, 3, 49},
	} {
		if _, err := DecodeBlock(c.rows, c.cols, make([]byte, c.n)); err == nil {
			t.Errorf("DecodeBlock(%d, %d, %d bytes) accepted", c.rows, c.cols, c.n)
		}
	}
}

// FuzzReadFrame: any byte stream yields either an error or a frame whose
// payload is exactly the bytes its length prefix names.
func FuzzReadFrame(f *testing.F) {
	f.Add(header(2, OpPing))
	f.Add(append(header(5, OpRead), 0, 1, 'A'))
	f.Add(header(MaxFrameBytes+1, OpWrite))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		version, kind, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := binary.BigEndian.Uint32(data)
		if n < 2 || n > MaxFrameBytes || int(n)-2 != len(payload) {
			t.Fatalf("length prefix %d yielded a %d-byte payload", n, len(payload))
		}
		if version != data[4] || kind != data[5] || !bytes.Equal(payload, data[6:6+len(payload)]) {
			t.Fatal("frame fields do not match the input bytes")
		}
	})
}

// FuzzDecodeBlock: a wire-supplied shape and payload either decode to a
// block that re-encodes to the same bytes, or fail exactly when the
// payload is not 8·rows·cols bytes — and never panic or over-allocate.
// Dec.Block, reading the same shape and payload off a frame, agrees.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(uint32(2), uint32(3), make([]byte, 48))
	f.Add(uint32(1), uint32(1), []byte{1, 2, 3})
	f.Add(uint32(0), uint32(7), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint32, payload []byte) {
		blk, err := DecodeBlock(int(rows), int(cols), payload)
		d := NewDec(new(Enc).U32(rows).U32(cols).Blob(payload).Bytes())
		dblk := d.Block()
		if (d.Err() == nil) != (err == nil) || (dblk == nil) != (err != nil) {
			t.Fatalf("Dec.Block = %v, %v; DecodeBlock err = %v", dblk, d.Err(), err)
		}
		if err == nil && (dblk.Rows != blk.Rows || dblk.Cols != blk.Cols || !bytes.Equal(EncodeBlock(nil, dblk), payload)) {
			t.Fatal("Dec.Block and DecodeBlock decoded different blocks")
		}
		hi, elems := bits.Mul64(uint64(rows), uint64(cols))
		fits := hi == 0 && len(payload)%8 == 0 && elems == uint64(len(payload)/8)
		if (err == nil) != fits {
			t.Fatalf("DecodeBlock(%d, %d, %d bytes) err = %v", rows, cols, len(payload), err)
		}
		if err != nil {
			return
		}
		if blk.Rows != int(rows) || blk.Cols != int(cols) || !bytes.Equal(EncodeBlock(nil, blk), payload) {
			t.Fatal("decoded block does not re-encode to its payload")
		}
	})
}
