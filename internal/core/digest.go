package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync/atomic"
)

// colHash is the cached SHA-256 of one interest or activity column; nil
// means not computed yet. A Snapshot shares a column's slot exactly as it
// shares the column (see snapshot.go), so a slot reached through a shared
// column always holds that column's hash or nil. Concurrent Digest calls on
// snapshots sharing a slot may both fill it; they store the same value, and
// the atomic pointer keeps that race-free.
type colHash = atomic.Pointer[[sha256.Size]byte]

// newHashes returns n empty column-hash slots.
func newHashes(n int) []*colHash {
	slots := make([]*colHash, n)
	for i := range slots {
		slots[i] = new(colHash)
	}
	return slots
}

// clearHash empties an owned column's slot before a write. The load first
// keeps repeated writes to one column (generators fill whole rows cell by
// cell) at a plain read instead of an atomic store per cell.
func clearHash(slot *colHash) {
	if slot.Load() != nil {
		slot.Store(nil)
	}
}

// Digest returns a hex SHA-256 content digest of the instance: the problem
// parameters (θ, |U|), the event/interval/competing metadata and both
// matrices. Two instances with the same digest describe the same SES problem
// in the same representation, so the digest is a safe cache key for solver
// results and a cheap equality check for deduplicating uploads. Names
// participate (they appear in reports), as does ordering — the digest
// identifies the instance as given, not an isomorphism class.
//
// The digest is two-level (scheme v2): every interest and activity column
// has its own SHA-256, cached beside the column, and the instance digest
// hashes the metadata followed by the column hashes in column order. Only
// columns written since their hash was last computed are re-hashed, so after
// a one-cell mutation Digest costs one column plus 32 bytes per column, not
// the whole matrix. Dense and sparse instances hash under different domain
// tags; a sparse column hashes its nonzero lists (O(nonzeros)), never its
// logical dense expansion.
//
// Digest fills the receiver's empty hash slots, so like the mutators it
// must be serialized with writes to the same instance; concurrent Digest
// calls on published snapshots are safe.
func (in *Instance) Digest() string {
	d := newDigestStream()
	in.writeMeta(d, "v2")
	for h := range in.interestHash {
		d.h.Write(cachedSum(in.interestHash[h], func(c *digestStream) { in.writeInterestCol(c, h) })[:])
	}
	for t := range in.activityHash {
		d.h.Write(cachedSum(in.activityHash[t], func(c *digestStream) { writeFloat32s(c.h, in.activity[t]) })[:])
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// DigestV1 returns the digest under scheme v1: one SHA-256 over the
// metadata and then every column's bytes. Format-1 WAL records carry v1
// digests, and replay of those records is its only caller. It reads no
// cached column hash and fills none. It is a function rather than a method
// so the public Instance type does not grow a second digest.
func DigestV1(in *Instance) string {
	d := newDigestStream()
	in.writeMeta(d, "v1")
	for h := 0; h < len(in.Events)+len(in.Competing); h++ {
		in.writeInterestCol(d, h)
	}
	for _, col := range in.activity {
		writeFloat32s(d.h, col)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// cachedSum returns the hash held in slot, computing it with write and
// storing it on a miss.
func cachedSum(slot *colHash, write func(*digestStream)) *[sha256.Size]byte {
	if sum := slot.Load(); sum != nil {
		return sum
	}
	c := newDigestStream()
	write(c)
	sum := new([sha256.Size]byte)
	c.h.Sum(sum[:0])
	slot.Store(sum)
	return sum
}

// digestStream is a SHA-256 with the fixed-width writers both schemes use.
type digestStream struct {
	h   hash.Hash
	buf [8]byte
}

func newDigestStream() *digestStream { return &digestStream{h: sha256.New()} }

func (d *digestStream) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digestStream) f64(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digestStream) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

// writeMeta writes the scheme's domain tag, the problem parameters and the
// event/interval/competing metadata: everything but the matrices.
func (in *Instance) writeMeta(d *digestStream, scheme string) {
	if in.sparse != nil {
		d.str("ses-instance-sparse-" + scheme)
	} else {
		d.str("ses-instance-" + scheme)
	}
	d.f64(in.Theta)
	d.int(int64(in.numUsers))
	d.int(int64(len(in.Events)))
	for _, e := range in.Events {
		d.str(e.Name)
		d.int(int64(e.Location))
		d.f64(e.Resources)
	}
	d.int(int64(len(in.Intervals)))
	for _, t := range in.Intervals {
		d.str(t.Name)
		d.int(t.Start)
		d.int(t.End)
	}
	d.int(int64(len(in.Competing)))
	for _, c := range in.Competing {
		d.str(c.Name)
		d.int(int64(c.Interval))
		d.int(c.Start)
		d.int(c.End)
	}
}

// writeInterestCol writes interest column h: its values when dense, its
// nonzero count, user indices and values when sparse.
func (in *Instance) writeInterestCol(d *digestStream, h int) {
	if in.sparse != nil {
		d.int(int64(len(in.sparse[h].Users)))
		writeUint32s(d.h, in.sparse[h].Users)
		writeFloat32s(d.h, in.sparse[h].Mu)
		return
	}
	writeFloat32s(d.h, in.interest[h])
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
