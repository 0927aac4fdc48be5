package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Digest returns a hex SHA-256 content digest of the instance: the problem
// parameters (θ, |U|), the event/interval/competing metadata and both
// matrices. Two instances with the same digest describe the same SES problem
// in the same representation, so the digest is a safe cache key for solver
// results and a cheap equality check for deduplicating uploads. Names
// participate (they appear in reports), as does ordering — the digest
// identifies the instance as given, not an isomorphism class.
//
// Dense and sparse instances hash under different domain tags: a sparse
// digest covers the nonzero lists directly (O(nonzeros) — hashing the
// logical dense expansion would make every mutation of a million-user
// sparse instance pay for its zeros), while the dense stream stays
// byte-identical to earlier builds so pre-sparse WAL records keep
// digest-verifying on replay. WAL round trips preserve the representation
// (seio encodes sparse instances sparsely), so recorded digests always
// compare against a recomputation in the same representation.
func (in *Instance) Digest() string {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wF64 := func(v float64) { wInt(int64(math.Float64bits(v))) }
	wStr := func(s string) {
		wInt(int64(len(s)))
		h.Write([]byte(s))
	}
	if in.sparse != nil {
		wStr("ses-instance-sparse-v1")
	} else {
		wStr("ses-instance-v1")
	}
	wF64(in.Theta)
	wInt(int64(in.numUsers))
	wInt(int64(len(in.Events)))
	for _, e := range in.Events {
		wStr(e.Name)
		wInt(int64(e.Location))
		wF64(e.Resources)
	}
	wInt(int64(len(in.Intervals)))
	for _, t := range in.Intervals {
		wStr(t.Name)
		wInt(t.Start)
		wInt(t.End)
	}
	wInt(int64(len(in.Competing)))
	for _, c := range in.Competing {
		wStr(c.Name)
		wInt(int64(c.Interval))
		wInt(c.Start)
		wInt(c.End)
	}
	if in.sparse != nil {
		for hcol := range in.sparse {
			wInt(int64(len(in.sparse[hcol].Users)))
			writeUint32s(h, in.sparse[hcol].Users)
			writeFloat32s(h, in.sparse[hcol].Mu)
		}
	} else {
		for _, col := range in.interest {
			writeFloat32s(h, col)
		}
	}
	for _, col := range in.activity {
		writeFloat32s(h, col)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeUint32s streams a uint32 slice into the hash in little-endian form,
// batched like writeFloat32s.
func writeUint32s(h hash.Hash, vals []uint32) {
	var buf [4096]byte
	n := 0
	for _, v := range vals {
		binary.LittleEndian.PutUint32(buf[n:], v)
		n += 4
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	if n > 0 {
		h.Write(buf[:n])
	}
}

// writeFloat32s streams a float32 slice into the hash in little-endian bit
// representation, batching through a fixed buffer to avoid per-value Write
// calls on million-user matrices.
func writeFloat32s(h hash.Hash, vals []float32) {
	var buf [4096]byte
	n := 0
	for _, v := range vals {
		binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(v))
		n += 4
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	if n > 0 {
		h.Write(buf[:n])
	}
}
