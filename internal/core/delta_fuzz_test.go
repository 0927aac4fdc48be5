package core

import (
	"slices"
	"testing"
)

// FuzzSnapshotDelta drives random setter / AddCompeting sequences, with
// intermediate snapshots, over dense and sparse instances. SnapshotDelta
// must come back sorted and deduplicated, must report every column whose
// content changed, and NewScorerFromDelta with it must match a cold scorer
// bit for bit; the starting snapshot must not move. After every step, the
// Digest computed through the cached column hashes must equal the digest of
// a deep copy whose hash slots are all empty.
func FuzzSnapshotDelta(f *testing.F) {
	f.Add(uint64(1), uint8(4), []byte{0, 1, 2, 3, 2, 5, 6, 7, 3, 0, 1, 9})
	f.Add(uint64(7), uint8(0), []byte{3, 2, 0, 128, 4, 0, 0, 0, 1, 3, 3, 0, 0, 9, 9, 0})
	f.Add(uint64(42), uint8(200), []byte{5, 4, 1, 0, 6, 0, 2, 200, 7, 1, 0, 50, 4, 9, 9, 9, 2, 7, 1, 1})
	// Two writes to one owned column with a Digest between them.
	f.Add(uint64(3), uint8(100), []byte{0, 1, 2, 3, 0, 5, 2, 7, 2, 1, 1, 9, 2, 4, 1, 11})
	f.Fuzz(func(t *testing.T, seed uint64, dens uint8, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		dense, sparse := buildPair(t, seed, 5, 4, int(seed%3), 24, float64(dens)/255)
		for _, prev := range []*Instance{dense, sparse} {
			weights := make([]float64, prev.NumUsers())
			for u := range weights {
				weights[u] = 0.25 + float64(u%3)*0.5
			}
			opts := ScorerOptions{UserWeights: weights}
			prevSc, err := NewScorerWithOptions(prev, opts)
			if err != nil {
				t.Fatal(err)
			}
			prevDigest := prev.Digest()

			next := prev.Snapshot()
			for i := 0; i+3 < len(ops); i += 4 {
				applyFuzzOp(t, next, ops[i], ops[i+1], ops[i+2], ops[i+3])
				if ops[i]%8 == 4 {
					next = next.Snapshot()
				}
				checkFresh(t, next, next.Digest())
			}

			d := SnapshotDelta(prev, next)
			for _, idx := range [][]int{d.Events, d.CompIntervals, d.ActIntervals} {
				for j := 1; j < len(idx); j++ {
					if idx[j-1] >= idx[j] {
						t.Fatalf("delta not sorted and deduplicated: %+v", d)
					}
				}
			}
			for e := 0; e < next.NumEvents(); e++ {
				if colChanged(prev, next, e) && !slices.Contains(d.Events, e) {
					t.Fatalf("event %d changed but delta %+v misses it", e, d)
				}
			}
			for tt := 0; tt < next.NumIntervals(); tt++ {
				if compChanged(prev, next, tt) && !slices.Contains(d.CompIntervals, tt) {
					t.Fatalf("competing sum of interval %d changed but delta %+v misses it", tt, d)
				}
				changed := false
				for u := 0; u < next.NumUsers(); u++ {
					changed = changed || prev.Activity(u, tt) != next.Activity(u, tt)
				}
				if changed && !slices.Contains(d.ActIntervals, tt) {
					t.Fatalf("activity of interval %d changed but delta %+v misses it", tt, d)
				}
			}
			if prev.Digest() != prevDigest {
				t.Fatal("writes through the snapshot chain reached the starting snapshot")
			}
			checkFresh(t, prev, prevDigest)

			cold, err := NewScorerWithOptions(next, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := NewScorerFromDelta(prevSc, next, opts, d)
			if err != nil {
				t.Fatal(err)
			}
			sameScorerBits(t, cold, warm)
		}
	})
}

// applyFuzzOp applies one mutation chosen by op to inst; a, b and c pick the
// cell, the column and the value.
func applyFuzzOp(t *testing.T, inst *Instance, op, a, b, c byte) {
	t.Helper()
	nU, nE, nT, nC := inst.NumUsers(), inst.NumEvents(), inst.NumIntervals(), inst.NumCompeting()
	u := int(a) % nU
	v := float64(c) / 255
	if c%4 == 0 {
		v = 0 // exercise sparse removals
	}
	switch op % 8 {
	case 0:
		inst.SetInterest(u, int(b)%nE, v)
	case 1:
		if nC > 0 {
			inst.SetCompetingInterest(u, int(b)%nC, v)
		}
	case 2:
		inst.SetActivity(u, int(b)%nT, v)
	case 3:
		col := make([]float32, nU)
		for i := range col {
			if (i+int(a))%3 == 0 {
				col[i] = float32(v)
			}
		}
		if err := inst.AddCompeting(Competing{Interval: int(b) % nT}, col); err != nil {
			t.Fatal(err)
		}
	case 4:
		// The caller snapshots: the chain grows a link.
	case 5:
		row := make([]float32, nE+nC)
		for h := range row {
			if (h+int(b))%2 == 0 {
				row[h] = float32(v)
			}
		}
		inst.SetInterestRow(u, row)
	case 6:
		inst.ScaleCompetingInterest(float64(c) / 64)
	case 7:
		row := make([]float32, nT)
		row[int(b)%nT] = float32(v)
		inst.SetActivityRow(u, row)
	}
}

// colChanged reports whether interest column h holds different values in
// the two instances.
func colChanged(a, b *Instance, h int) bool {
	for u := 0; u < a.NumUsers(); u++ {
		if a.interestAt(u, h) != b.interestAt(u, h) {
			return true
		}
	}
	return false
}

// compChanged reports whether interval t's competing events, or any of
// their interest columns, differ between the two instances.
func compChanged(a, b *Instance, t int) bool {
	ca, cb := a.CompetingAt(t), b.CompetingAt(t)
	if !slices.Equal(ca, cb) {
		return true
	}
	for _, c := range ca {
		if colChanged(a, b, a.NumEvents()+c) {
			return true
		}
	}
	return false
}
