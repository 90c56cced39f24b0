package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// lyingHeader is a frame header claiming the largest allowed payload,
// followed by only ten payload bytes.
func lyingHeader() []byte {
	b := make([]byte, 8, 18)
	binary.BigEndian.PutUint32(b[0:4], maxRecordBytes)
	return append(b, "0123456789"...)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameAllocs: the framing of a replayed record allocates the same
// for a 300 B and a 3 KB payload, on top of the record's own JSON decode —
// the buffer is sized from the length prefix, not grown as the payload
// arrives. Replay, recovery and every follower pay this per record.
func TestReadFrameAllocs(t *testing.T) {
	framing := map[int]float64{}
	for _, size := range []int{300, 3000} {
		rec := &Record{Seq: 7, Op: OpAppend, Versions: map[string]uint64{"orders": 3, "payments": 5}}
		frame, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.Data = strings.Repeat("row orders o1 'Big Data' 30 ", size)[:size-len(frame)+8]
		if frame, err = encodeFrame(rec); err != nil || len(frame) != size+8 {
			t.Fatalf("frame of %d bytes, err %v; want a %d-byte payload", len(frame), err, size)
		}
		rd := bytes.NewReader(nil)
		read := testing.AllocsPerRun(100, func() {
			rd.Reset(frame)
			if _, _, err := readFrame(rd); err != nil {
				t.Fatal(err)
			}
		})
		decode := testing.AllocsPerRun(100, func() {
			var r Record
			if err := json.Unmarshal(frame[8:], &r); err != nil {
				t.Fatal(err)
			}
		})
		framing[size] = read - decode
		t.Logf("%d B payload: %.0f allocations per frame, %.0f of them the record's decode", size, read, decode)
	}
	if framing[3000] != framing[300] {
		t.Errorf("the framing allocates %.0f times for a 300 B payload, %.0f for 3 KB", framing[300], framing[3000])
	}
}

// TestLyingLengthPrefix: a header claiming 256 MiB over a 10-byte payload
// costs the bytes present, not the bytes claimed, on every reader of the
// framing — and the torn payload is never mistaken for a clean end.
func TestLyingLengthPrefix(t *testing.T) {
	input := lyingHeader()
	var err error
	if n := allocated(func() { _, err = ReadFrame(bytes.NewReader(input)) }); n >= 1<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for an %d-byte input", n, len(input))
	}
	if err == nil || err == io.EOF || errors.Is(err, io.EOF) {
		t.Fatalf("ReadFrame on a torn payload: err = %v, want a non-EOF error", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame on a torn payload: err = %v, want it to wrap io.ErrUnexpectedEOF", err)
	}

	// Crash replay truncates the frame away at the same cost.
	path := filepath.Join(t.TempDir(), walFile)
	if err := os.WriteFile(path, append([]byte(walMagic), input...), 0o644); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if n := allocated(func() { recs, err = replayWAL(path) }); n >= 1<<20 {
		t.Fatalf("replayWAL allocated %d bytes for an %d-byte frame", n, len(input))
	}
	if err != nil || len(recs) != 0 {
		t.Fatalf("replayWAL: %d records, err %v; want none, nil", len(recs), err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(walMagic)) {
		t.Fatalf("torn frame not truncated away: %v, %v", st, err)
	}
}

// FuzzReadFrame: the one frame decoder never panics, accepts exactly a
// prefix of its input, reports io.EOF only for an empty input, and inverts
// encodeFrame on every record it accepts.
func FuzzReadFrame(f *testing.F) {
	for i, op := range []Op{OpAppend, OpReplace, OpRestore, OpEpoch} {
		rec := &Record{Seq: uint64(i + 1), Epoch: uint64(i), Op: op, Data: "row R _1 'a b'\n",
			Versions: map[string]uint64{"R": uint64(i)}, Trace: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"}
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if i == 0 {
			for cut := 0; cut < 8; cut++ {
				f.Add(frame[:cut]) // every torn header
			}
			for _, at := range []int{4, len(frame) - 2} { // a CRC byte, a payload byte
				flipped := bytes.Clone(frame)
				flipped[at] ^= 0x40
				f.Add(flipped)
			}
		}
	}
	f.Add(lyingHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, rec, err := readFrame(r)
		if errors.Is(err, io.EOF) != (len(data) == 0) {
			t.Fatalf("%d-byte input: err = %v; io.EOF is for an empty input alone", len(data), err)
		}
		if err != nil {
			return
		}
		if consumed := len(data) - r.Len(); consumed != len(frame) || !bytes.Equal(frame, data[:consumed]) {
			t.Fatalf("accepted frame of %d bytes is not the %d-byte prefix consumed", len(frame), consumed)
		}
		again, err := encodeFrame(rec)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", rec, err)
		}
		_, back, err := readFrame(bytes.NewReader(again))
		if err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("readFrame(encodeFrame(%+v)) = %+v, %v", rec, back, err)
		}
	})
}
