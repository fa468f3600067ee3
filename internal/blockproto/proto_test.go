package blockproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"strings"
	"testing"

	"riotshare/internal/blas"
)

// Every Enc writer has a Dec reader that returns the same value.
func TestEncDecRoundTrip(t *testing.T) {
	long := strings.Repeat("n", math.MaxUint16+10)
	blob := []byte{0, 1, 2, 0xff}
	e := new(Enc).U8(7).U32(math.MaxUint32).I64(-42).Str("q3.E with space").Str("").Str(long).Blob(blob).Blob(nil)
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

	// A blob whose length prefix claims more than the frame limit fails
	// without reading on.
	d = NewDec(binary.BigEndian.AppendUint32(nil, MaxFrameBytes+1))
	if b := d.Blob(); b != nil || d.Err() == nil {
		t.Errorf("over-limit Blob = %v, %v; want nil and an error", b, d.Err())
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
	if err := WriteFrame(io.Discard, OpWrite, make([]byte, MaxFrameBytes-1)); err == nil {
		t.Error("WriteFrame accepted a payload over the frame limit")
	}

	for _, payload := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xab}, 1000)} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, StatusNotFound, payload); err != nil {
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
func FuzzDecodeBlock(f *testing.F) {
	f.Add(uint32(2), uint32(3), make([]byte, 48))
	f.Add(uint32(1), uint32(1), []byte{1, 2, 3})
	f.Add(uint32(0), uint32(7), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint32, payload []byte) {
		blk, err := DecodeBlock(int(rows), int(cols), payload)
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
