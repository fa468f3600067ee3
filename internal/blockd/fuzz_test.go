package blockd

import (
	"testing"
	"time"

	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
)

// FuzzHandle feeds one arbitrary request to the handler of a fresh server
// over a temp-dir shard root holding one registered array, "A". Whatever
// the opcode and payload, the server must answer with a defined status in a
// reply that fits one frame, and never panic. A create it accepts must be
// one it can serve, so an accepted OpCreate is followed by a read of the
// new array's first block. Opcode 10 is retired and must be refused as a
// bad request. testdata/fuzz/FuzzHandle holds the hostile
// frames that once took the server down: a write declaring a
// 2³²−1 × 2³²−1 block, and a create of a 2²⁰ × 2²⁰ block whose first
// read allocated terabytes.
func FuzzHandle(f *testing.F) {
	enc := func() *blockproto.Enc { return new(blockproto.Enc) }
	f.Add(blockproto.OpPing, []byte(nil))
	f.Add(blockproto.OpCreate, enc().Str("B").U32(4).U32(3).U32(2).U32(2).I64(96).U8(1).Bytes())
	f.Add(blockproto.OpCreate, enc().Str("A").U32(2).U32(2).U32(1).U32(1).I64(0).U8(1).Bytes())
	f.Add(blockproto.OpRead, enc().Str("A").I64(1).I64(0).Bytes())
	f.Add(blockproto.OpWrite, enc().Str("A").I64(0).I64(1).U32(1).U32(1).Blob(make([]byte, 8)).Bytes())
	f.Add(blockproto.OpDrop, enc().Str("A").U8(1).Bytes())
	f.Add(blockproto.OpStats, []byte(nil))
	f.Add(blockproto.OpManifest, enc().U8(blockproto.ManifestPut).Blob([]byte("{}")).Bytes())
	f.Add(blockproto.OpManifest, enc().U8(blockproto.ManifestGet).Bytes())
	f.Add(blockproto.OpStat, enc().Str("../x").Bytes())
	f.Add(blockproto.OpWipe, enc().Str("A").Bytes())
	f.Add(byte(10), enc().I64(int64(time.Millisecond)).I64(0).Bytes()) // retired opcode
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		s, err := New(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.mgr.Create(&prog.Array{Name: "A", BlockRows: 1, BlockCols: 1, GridRows: 2, GridCols: 2}); err != nil {
			t.Fatal(err)
		}
		answer := func(op byte, payload []byte) byte {
			t.Helper()
			status, resp := s.handle(blockproto.ProtoVersion, op, payload)
			if status > blockproto.StatusBadVersion {
				t.Fatalf("op %d answered undefined status %d", op, status)
			}
			if len(resp)+2 > blockproto.MaxFrameBytes {
				t.Fatalf("op %d answered %d bytes, over the frame limit", op, len(resp))
			}
			return status
		}
		status := answer(op, payload)
		if op == 10 && status != blockproto.StatusBadRequest {
			t.Fatalf("retired opcode 10 answered status %d, want StatusBadRequest", status)
		}
		if status == blockproto.StatusOK && op == blockproto.OpCreate {
			name := blockproto.NewDec(payload).Str()
			answer(blockproto.OpRead, enc().Str(name).I64(0).I64(0).Bytes())
		}
	})
}

// handle is respond with the reply as the payload bytes its frame carries.
func (s *Server) handle(version, op byte, payload []byte) (byte, []byte) {
	status, e := s.respond(version, op, payload)
	if e == nil {
		return status, nil
	}
	return status, e.Bytes()
}
