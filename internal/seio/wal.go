package seio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL records: the durable form of every sesd store mutation, written by
// internal/persist into length-prefixed, CRC-checksummed frames. They live in
// seio next to the instance/schedule formats because their payloads ARE the
// existing wire vocabulary — a logged upload carries a sesgen instance
// document, a logged solve carries the SolveResponse the HTTP API returned —
// so the on-disk log and the online API cannot drift apart.
//
// Frame layout (little-endian):
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload (JSON)
//
// A frame is either complete and checksummed or it is garbage; there is no
// partial-validity middle ground. ReadWALRecord distinguishes the three ways
// a read can fail so the recovery code can react to each correctly:
//
//   - io.EOF: clean end of log, exactly at a frame boundary.
//   - io.ErrUnexpectedEOF: the log ends mid-frame — the torn tail of a crash
//     during an append. Recovery truncates it and continues.
//   - ErrWALCorrupt: the frame is structurally broken (bad length, CRC
//     mismatch, undecodable or mis-shaped payload). In the newest segment
//     this is treated like a torn tail; anywhere else it is data corruption
//     and recovery refuses to guess.
//   - ErrWALTooNew: the record was written by a newer build. Never truncated
//     — upgrading the binary is the fix, destroying the record is not.
const (
	// WALFormatVersion is bumped on breaking changes to the record layout.
	// Every record is written at this version; ReadWALRecord also accepts
	// the older minWALFormatVersion..WALFormatVersion-1.
	//
	// Version 2 changed no field, only the digest scheme put and mutate
	// records carry: format-1 records hold core.DigestV1 digests, format-2
	// records hold core's two-level (*Instance).Digest. Replay verifies each
	// record against the scheme its version names.
	WALFormatVersion = 2

	// minWALFormatVersion is the oldest record format this build replays.
	minWALFormatVersion = 1

	// MaxWALRecordBytes bounds one record's payload (1 GiB). A declared
	// length beyond it is corruption, not a huge record.
	MaxWALRecordBytes = 1 << 30

	// walHeaderBytes is the frame header size: length + CRC.
	walHeaderBytes = 8
)

// WAL record kinds. Each kind has exactly one payload field in WALRecord.
const (
	WALKindMeta   = "meta"   // snapshot header: version sequences, job seq
	WALKindPut    = "put"    // full instance upload (also snapshot entries)
	WALKindMutate = "mutate" // one applied MutateRequest
	WALKindDelete = "delete" // instance removal
	WALKindSolve  = "solve"  // completed solve result (result-cache entry)
	WALKindJob    = "job"    // finished async sweep job
)

// ErrWALCorrupt reports a structurally broken WAL frame: bad length, CRC
// mismatch, or a payload that does not decode to its declared kind.
var ErrWALCorrupt = errors.New("seio: wal record corrupt")

// ErrWALTooNew reports a WAL record written by a newer build than this one.
var ErrWALTooNew = errors.New("seio: wal record format is newer than this build supports; upgrade the tools")

// WALRecord is one durable log entry. Kind selects which single payload
// field is populated.
type WALRecord struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`

	Meta   *WALMeta   `json:"meta,omitempty"`
	Put    *WALPut    `json:"put,omitempty"`
	Mutate *WALMutate `json:"mutate,omitempty"`
	Delete *WALDelete `json:"delete,omitempty"`
	Solve  *WALSolve  `json:"solve,omitempty"`
	Job    *WALJob    `json:"job,omitempty"`
}

// WALMeta heads a snapshot: the version sequences of *deleted* names (live
// names carry theirs in their put records; tombstones must survive too so a
// re-Put can never reuse a version and poison the result cache) and the
// async-job ID sequence.
type WALMeta struct {
	LastVersions map[string]uint64 `json:"last_versions,omitempty"`
	JobSeq       uint64            `json:"job_seq,omitempty"`
}

// WALPut logs a full instance publication: an upload, or one live instance
// inside a snapshot. Instance is a complete seio instance document; Digest is
// the content digest the store computed at publish time, re-verified against
// the decoded instance on replay.
type WALPut struct {
	Name         string          `json:"name"`
	StoreVersion uint64          `json:"store_version"`
	Digest       string          `json:"digest"`
	Instance     json.RawMessage `json:"instance"`
}

// WALMutate logs one applied mutation batch as its delta: replay re-applies
// Request to the predecessor version and must reproduce Digest bit for bit.
type WALMutate struct {
	Name         string        `json:"name"`
	StoreVersion uint64        `json:"store_version"`
	Digest       string        `json:"digest"`
	Request      MutateRequest `json:"request"`
}

// WALDelete logs an instance removal. PriorVersion is the name's version
// sequence at deletion time, so replay keeps the sequence monotonic even when
// compaction has collapsed the puts that preceded the delete.
type WALDelete struct {
	Name         string `json:"name"`
	PriorVersion uint64 `json:"prior_version"`
}

// WALSolve logs a completed solve: the full result-cache entry, keyed exactly
// like the in-memory cache (name, pinned version, algorithm, k, seed for RAND,
// scorer-options fingerprint).
type WALSolve struct {
	Name            string        `json:"name"`
	StoreVersion    uint64        `json:"store_version"`
	Algorithm       string        `json:"algorithm"`
	K               int           `json:"k"`
	Seed            uint64        `json:"seed,omitempty"`
	OptsFingerprint uint64        `json:"opts_fp,omitempty"`
	Response        SolveResponse `json:"response"`
}

// WALJob logs an async sweep job: its status (including per-cell results)
// plus the numeric ID sequence value it occupied. Jobs are logged at submit
// (running form, FinishedAtMS 0) and at finish (terminal form with the
// finish wall-time in unix milliseconds), so recovery can both protect the
// ID sequence of in-flight jobs and honor the retention TTL across restarts
// — an already-expired job must not resurrect.
type WALJob struct {
	Seq          uint64       `json:"seq"`
	Status       JobStatusMsg `json:"status"`
	FinishedAtMS int64        `json:"finished_at_ms,omitempty"`
}

// payloadErr reports a kind/payload mismatch, or nil when the record carries
// exactly the payload its kind declares.
func (r *WALRecord) payloadErr() error {
	var ok bool
	switch r.Kind {
	case WALKindMeta:
		ok = r.Meta != nil
	case WALKindPut:
		ok = r.Put != nil
	case WALKindMutate:
		ok = r.Mutate != nil
	case WALKindDelete:
		ok = r.Delete != nil
	case WALKindSolve:
		ok = r.Solve != nil
	case WALKindJob:
		ok = r.Job != nil
	default:
		return fmt.Errorf("%w: unknown record kind %q", ErrWALCorrupt, r.Kind)
	}
	if !ok {
		return fmt.Errorf("%w: %s record without %s payload", ErrWALCorrupt, r.Kind, r.Kind)
	}
	return nil
}

// WriteWALRecord frames and writes one record, returning the bytes written.
// The frame is assembled in memory and written in a single Write call to keep
// the torn-write window as small as the filesystem allows.
func WriteWALRecord(w io.Writer, rec *WALRecord) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("seio: encode wal record: %w", err)
	}
	if len(payload) > MaxWALRecordBytes {
		return 0, fmt.Errorf("seio: wal record payload %d bytes exceeds limit %d", len(payload), MaxWALRecordBytes)
	}
	frame := make([]byte, walHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[walHeaderBytes:], payload)
	n, err := w.Write(frame)
	if err != nil {
		return int64(n), fmt.Errorf("seio: write wal record: %w", err)
	}
	return int64(n), nil
}

// ReadWALRecord reads and validates one framed record, returning it together
// with the number of bytes consumed. See the package comment on this file for
// the error contract (io.EOF / io.ErrUnexpectedEOF / ErrWALCorrupt /
// ErrWALTooNew).
func ReadWALRecord(r io.Reader) (*WALRecord, int64, error) {
	var hdr [walHeaderBytes]byte
	n, err := io.ReadFull(r, hdr[:])
	switch {
	case errors.Is(err, io.EOF):
		return nil, 0, io.EOF
	case errors.Is(err, io.ErrUnexpectedEOF):
		return nil, int64(n), io.ErrUnexpectedEOF
	case err != nil:
		return nil, int64(n), fmt.Errorf("seio: read wal record header: %w", err)
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size == 0 || size > MaxWALRecordBytes {
		return nil, walHeaderBytes, fmt.Errorf("%w: declared payload length %d", ErrWALCorrupt, size)
	}
	// Copy incrementally instead of pre-allocating the declared size: a
	// corrupt length field must not commit gigabytes before the (short)
	// body disproves it.
	var body bytes.Buffer
	copied, err := io.CopyN(&body, r, int64(size))
	read := walHeaderBytes + copied
	switch {
	case errors.Is(err, io.EOF):
		return nil, read, io.ErrUnexpectedEOF
	case err != nil:
		return nil, read, fmt.Errorf("seio: read wal record payload: %w", err)
	}
	payload := body.Bytes()
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, read, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrWALCorrupt, want, got)
	}
	rec := new(WALRecord)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, read, fmt.Errorf("%w: undecodable payload: %v", ErrWALCorrupt, err)
	}
	switch {
	case rec.Version > WALFormatVersion:
		return nil, read, fmt.Errorf("%w (record version %d, max %d)", ErrWALTooNew, rec.Version, WALFormatVersion)
	case rec.Version < minWALFormatVersion:
		return nil, read, fmt.Errorf("%w: missing or invalid record version %d", ErrWALCorrupt, rec.Version)
	}
	if err := rec.payloadErr(); err != nil {
		return nil, read, err
	}
	return rec, read, nil
}
