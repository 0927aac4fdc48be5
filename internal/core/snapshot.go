package core

import (
	"fmt"
	"slices"
)

// Copy-on-write snapshots.
//
// A Snapshot is a frozen view of an instance: it shares every interest and
// activity column with the original until either side writes one, at which
// point the writing side copies that column alone (column-granularity
// copy-on-write). A one-cell mutation therefore costs one column copy, not a
// matrix copy. This is the concurrency contract the server's versioned
// instance store is built on: in-flight solves keep reading the snapshot
// they started with while the store publishes a mutated successor version —
// the same read-your-snapshot idiom persistent stores like ebakusdb use for
// safe concurrent reads during transactions.
//
// Shared columns are also what SnapshotDelta reads: two snapshots of one
// chain that hold the same backing column hold the same values in it.
//
// Each column's cached hash slot (digest.go) travels with the column: a
// snapshot shares the slot of every column it shares, a copied or appended
// column gets a fresh empty slot, and every write to an owned column empties
// its slot. So Digest re-hashes exactly the columns written since it last
// ran, and a shared slot is never emptied, only filled.
//
// Snapshot and the mutating accessors must be externally serialized with
// each other (the store holds a lock across them). Concurrent *readers* of
// already-published snapshots need no synchronization: a published
// snapshot's columns are never written again — any later mutation writes to
// a fresh copy owned by the successor.

// Snapshot returns a copy-on-write snapshot of the instance in
// O(|E|+|C|+|T|): only the column headers are cloned. Both the receiver and
// the snapshot keep sharing every column; the first write on either side
// copies the column it touches, so neither can observe the other's
// subsequent writes. Metadata slices (Events, Intervals, Competing) share
// backing arrays too; mutators that change them (AddCompeting) copy first.
func (in *Instance) Snapshot() *Instance {
	in.ownedInterest, in.ownedActivity = nil, nil
	cp := *in
	cp.interest = slices.Clone(in.interest)
	cp.sparse = slices.Clone(in.sparse)
	cp.activity = slices.Clone(in.activity)
	cp.interestHash = slices.Clone(in.interestHash)
	cp.activityHash = slices.Clone(in.activityHash)
	return &cp
}

// allOwned returns an ownership set marking all n columns owned.
func allOwned(n int) []bool {
	owned := make([]bool, n)
	for i := range owned {
		owned[i] = true
	}
	return owned
}

// claim marks column i of n owned and reports whether it already was.
func claim(owned *[]bool, n, i int) bool {
	if *owned == nil {
		*owned = make([]bool, n)
	}
	was := (*owned)[i]
	(*owned)[i] = true
	return was
}

// ownInterestCol prepares interest column h for a write: it makes the
// column exclusively owned, copying it if it is still shared with a
// snapshot (|U| cells for a dense column, its nonzeros for a sparse one),
// and leaves its hash slot empty.
func (in *Instance) ownInterestCol(h int) {
	if claim(&in.ownedInterest, len(in.Events)+len(in.Competing), h) {
		clearHash(in.interestHash[h])
		return
	}
	if in.sparse != nil {
		in.sparse[h] = in.sparse[h].clone()
	} else {
		in.interest[h] = slices.Clone(in.interest[h])
	}
	in.interestHash[h] = new(colHash)
}

// ownActivityCol prepares activity column t for a write, like
// ownInterestCol.
func (in *Instance) ownActivityCol(t int) {
	if claim(&in.ownedActivity, len(in.activity), t) {
		clearHash(in.activityHash[t])
		return
	}
	in.activity[t] = slices.Clone(in.activity[t])
	in.activityHash[t] = new(colHash)
}

// AddCompeting appends a competing event together with the per-user interest
// column µ(·, c) (length |U|, values in [0, 1]). The instance gains one
// owned column; existing columns and the metadata slice shared with
// snapshots are left untouched, so existing snapshots are unaffected. It is
// the mutation behind the server's "a third-party event just got announced"
// what-if updates.
func (in *Instance) AddCompeting(c Competing, interest []float32) error {
	if c.Interval < 0 || c.Interval >= len(in.Intervals) {
		return fmt.Errorf("core: competing event references interval %d, have %d intervals", c.Interval, len(in.Intervals))
	}
	if len(interest) != in.numUsers {
		return fmt.Errorf("core: competing interest column has %d values, want %d users", len(interest), in.numUsers)
	}
	for u, v := range interest {
		// Negated-conjunction form so NaN (for which both v < 0 and v > 1
		// are false) is rejected too, not silently stored.
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("core: competing interest value %v for user %d out of [0,1]", v, u)
		}
	}
	h := len(in.Events) + len(in.Competing)
	if in.sparse != nil {
		var col SparseCol
		for u, v := range interest {
			if v != 0 {
				col.Users = append(col.Users, uint32(u))
				col.Mu = append(col.Mu, v)
			}
		}
		in.sparse = append(in.sparse, col)
	} else {
		in.interest = append(in.interest, slices.Clone(interest))
	}
	if in.ownedInterest == nil {
		in.ownedInterest = make([]bool, h)
	}
	in.ownedInterest = append(in.ownedInterest, true)
	in.interestHash = append(in.interestHash, new(colHash))
	in.Competing = append(append([]Competing(nil), in.Competing...), c)
	return nil
}
