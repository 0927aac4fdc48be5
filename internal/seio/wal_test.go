package seio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
)

// walTestRecords builds one record of every kind, with realistic payloads.
func walTestRecords(t interface {
	Helper()
	Fatal(...any)
}) []*WALRecord {
	t.Helper()
	var instBuf bytes.Buffer
	if err := WriteInstance(&instBuf, core.RunningExample()); err != nil {
		t.Fatal(err)
	}
	return []*WALRecord{
		{Version: WALFormatVersion, Kind: WALKindMeta, Meta: &WALMeta{
			LastVersions: map[string]uint64{"fest": 3, "gone": 7}, JobSeq: 12}},
		{Version: WALFormatVersion, Kind: WALKindPut, Put: &WALPut{
			Name: "fest", StoreVersion: 3, Digest: "abc", Instance: json.RawMessage(bytes.TrimSpace(instBuf.Bytes()))}},
		{Version: WALFormatVersion, Kind: WALKindMutate, Mutate: &WALMutate{
			Name: "fest", StoreVersion: 4, Digest: "def",
			Request: MutateRequest{Activity: []CellUpdate{{User: 1, Index: 0, Value: 0.5}}}}},
		{Version: WALFormatVersion, Kind: WALKindDelete, Delete: &WALDelete{Name: "gone", PriorVersion: 7}},
		{Version: WALFormatVersion, Kind: WALKindSolve, Solve: &WALSolve{
			Name: "fest", StoreVersion: 3, Algorithm: "HOR-I", K: 4, OptsFingerprint: 99,
			Response: SolveResponse{Algorithm: "HOR-I", K: 4, ScoreEvals: 10, Examined: 20}}},
		{Version: WALFormatVersion, Kind: WALKindJob, Job: &WALJob{Seq: 2, Status: JobStatusMsg{
			ID: "job-2", Status: JobDone, Cells: []JobCellMsg{{Algorithm: "ALG", K: 2, State: CellDone}}}}},
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := walTestRecords(t)
	var buf bytes.Buffer
	var want int64
	for _, rec := range recs {
		n, err := WriteWALRecord(&buf, rec)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	r := bytes.NewReader(buf.Bytes())
	var read int64
	for i, wantRec := range recs {
		rec, n, err := ReadWALRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		read += n
		if !reflect.DeepEqual(rec, wantRec) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, rec, wantRec)
		}
	}
	if read != want {
		t.Fatalf("read %d bytes, wrote %d", read, want)
	}
	if _, _, err := ReadWALRecord(r); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end of stream: %v, want io.EOF", err)
	}
}

func TestWALRecordErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteWALRecord(&buf, walTestRecords(t)[3]); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	t.Run("truncated header", func(t *testing.T) {
		_, _, err := ReadWALRecord(bytes.NewReader(frame[:5]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, err := ReadWALRecord(bytes.NewReader(frame[:len(frame)-4]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("crc mismatch", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] ^= 0xFF
		_, _, err := ReadWALRecord(bytes.NewReader(bad))
		if !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("got %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("zero length", func(t *testing.T) {
		_, _, err := ReadWALRecord(bytes.NewReader(make([]byte, 8)))
		if !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("got %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("huge declared length", func(t *testing.T) {
		hdr := make([]byte, 8)
		binary.LittleEndian.PutUint32(hdr, MaxWALRecordBytes+1)
		_, _, err := ReadWALRecord(bytes.NewReader(hdr))
		if !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("got %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		rec := walTestRecords(t)[3]
		rec.Version = WALFormatVersion + 1
		var b bytes.Buffer
		if _, err := WriteWALRecord(&b, rec); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadWALRecord(&b)
		if !errors.Is(err, ErrWALTooNew) {
			t.Errorf("got %v, want ErrWALTooNew", err)
		}
	})
	t.Run("format-1 record still reads", func(t *testing.T) {
		rec := walTestRecords(t)[2]
		rec.Version = 1
		var b bytes.Buffer
		if _, err := WriteWALRecord(&b, rec); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadWALRecord(&b)
		if err != nil || got.Version != 1 {
			t.Errorf("got %+v, %v; want the format-1 record back", got, err)
		}
	})
	t.Run("version zero", func(t *testing.T) {
		rec := walTestRecords(t)[3]
		rec.Version = 0
		var b bytes.Buffer
		if _, err := WriteWALRecord(&b, rec); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadWALRecord(&b)
		if !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("got %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("kind/payload mismatch", func(t *testing.T) {
		rec := &WALRecord{Version: WALFormatVersion, Kind: WALKindPut, Delete: &WALDelete{Name: "x"}}
		var b bytes.Buffer
		if _, err := WriteWALRecord(&b, rec); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadWALRecord(&b)
		if !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("got %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		rec := &WALRecord{Version: WALFormatVersion, Kind: "frobnicate"}
		var b bytes.Buffer
		if _, err := WriteWALRecord(&b, rec); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadWALRecord(&b)
		if !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("got %v, want ErrWALCorrupt", err)
		}
	})
}
