package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/randx"
)

// buildPair builds the same random instance twice — once dense, once sparse —
// from identical row streams at the given interest density.
func buildPair(t *testing.T, seed uint64, nE, nT, nC, nU int, density float64) (dense, sparse *Instance) {
	t.Helper()
	build := func(rep Rep) *Instance {
		r := randx.New(seed)
		events := make([]Event, nE)
		for i := range events {
			events[i] = Event{Location: r.Intn(max(1, nE/2)), Resources: float64(r.IntRange(1, 3))}
		}
		intervals := make([]Interval, nT)
		competing := make([]Competing, nC)
		for i := range competing {
			competing[i] = Competing{Interval: r.Intn(nT)}
		}
		b, err := NewBuilder(events, intervals, competing, nU, 6, rep)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float32, nE+nC)
		act := make([]float32, nT)
		for u := 0; u < nU; u++ {
			for i := range row {
				if r.Float64() < density {
					row[i] = float32(r.Range(0.1, 1))
				} else {
					row[i] = 0
				}
			}
			for i := range act {
				act[i] = float32(r.Float64())
			}
			if err := b.AddUser(row, act); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	dense, sparse = build(RepDense), build(RepSparse)
	if dense.IsSparse() {
		t.Fatal("RepDense built a sparse instance")
	}
	if !sparse.IsSparse() {
		t.Fatal("RepSparse built a dense instance")
	}
	return dense, sparse
}

// sameProblem asserts a and b describe the identical SES problem cell for
// cell, regardless of representation.
func sameProblem(t *testing.T, a, b *Instance) {
	t.Helper()
	if a.NumEvents() != b.NumEvents() || a.NumIntervals() != b.NumIntervals() ||
		a.NumCompeting() != b.NumCompeting() || a.NumUsers() != b.NumUsers() || a.Theta != b.Theta {
		t.Fatal("instance shapes differ")
	}
	nI := a.NumEvents() + a.NumCompeting()
	ra, rb := make([]float32, nI), make([]float32, nI)
	aa, ab := make([]float32, a.NumIntervals()), make([]float32, a.NumIntervals())
	for u := 0; u < a.NumUsers(); u++ {
		a.CopyInterestRow(u, ra)
		b.CopyInterestRow(u, rb)
		for h := range ra {
			if ra[h] != rb[h] {
				t.Fatalf("interest(%d,%d): %v vs %v", u, h, ra[h], rb[h])
			}
		}
		a.CopyActivityRow(u, aa)
		b.CopyActivityRow(u, ab)
		for h := range aa {
			if aa[h] != ab[h] {
				t.Fatalf("activity(%d,%d): %v vs %v", u, h, aa[h], ab[h])
			}
		}
	}
}

// TestSparseDenseContentEqual: both representations of one row stream hold
// the identical problem, and the sparse digest is deterministic and
// mutation-sensitive (dense and sparse digests are deliberately distinct —
// a sparse column's hash covers its nonzero lists in O(nonzeros)).
func TestSparseDenseContentEqual(t *testing.T) {
	for _, density := range []float64{0, 0.03, 0.3, 1} {
		dense, sparse := buildPair(t, 7, 9, 4, 5, 40, density)
		sameProblem(t, dense, sparse)
		sparse2 := func() *Instance { _, s := buildPair(t, 7, 9, 4, 5, 40, density); return s }()
		if sparse.Digest() != sparse2.Digest() {
			t.Fatalf("density %v: sparse digest not deterministic", density)
		}
	}
	_, sparse := buildPair(t, 7, 9, 4, 5, 40, 0.3)
	before := sparse.Digest()
	sparse.SetInterest(2, 1, 0.875)
	if sparse.Digest() == before {
		t.Fatal("sparse digest ignored a mutation")
	}
}

// TestSparseDenseScoringBitIdentical checks the Eq. 1-4 surface: assignment
// scores (full range and shard partials), utilities, attendance and ρ must be
// bit-identical across representations.
func TestSparseDenseScoringBitIdentical(t *testing.T) {
	dense, sparse := buildPair(t, 3, 8, 3, 5, 700, 0.12)
	scD, scS := NewScorer(dense), NewScorer(sparse)
	sD, sS := NewSchedule(dense), NewSchedule(sparse)
	assign := func(e, tv int) {
		if err := sD.Assign(e, tv); err != nil {
			t.Fatal(err)
		}
		if err := sS.Assign(e, tv); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		t.Helper()
		for e := 0; e < dense.NumEvents(); e++ {
			for tv := 0; tv < dense.NumIntervals(); tv++ {
				if g, w := scS.Score(sS, e, tv), scD.Score(sD, e, tv); g != w {
					t.Fatalf("%s: Score(e%d,t%d) sparse %v dense %v", stage, e, tv, g, w)
				}
				// Shard partials must agree too (the engine's primitive).
				for lo := 0; lo < dense.NumUsers(); lo += 256 {
					hi := min(lo+256, dense.NumUsers())
					if g, w := scS.ScoreUsers(sS, e, tv, lo, hi), scD.ScoreUsers(sD, e, tv, lo, hi); g != w {
						t.Fatalf("%s: ScoreUsers(e%d,t%d,[%d,%d)) sparse %v dense %v", stage, e, tv, lo, hi, g, w)
					}
				}
			}
		}
		if g, w := scS.Utility(sS), scD.Utility(sD); g != w {
			t.Fatalf("%s: Utility sparse %v dense %v", stage, g, w)
		}
		for _, a := range sD.Assignments() {
			if g, w := scS.EventAttendance(sS, a.Event), scD.EventAttendance(sD, a.Event); g != w {
				t.Fatalf("%s: EventAttendance(e%d) sparse %v dense %v", stage, a.Event, g, w)
			}
			for u := 0; u < dense.NumUsers(); u += 97 {
				if g, w := scS.Rho(sS, u, a.Event), scD.Rho(sD, u, a.Event); g != w {
					t.Fatalf("%s: Rho(u%d,e%d) sparse %v dense %v", stage, u, a.Event, g, w)
				}
			}
		}
	}
	check("empty schedule")
	// Pick three valid assignments dynamically (two stacked in interval 0).
	picked := 0
	for e := 0; e < dense.NumEvents() && picked < 3; e++ {
		tv := 0
		if picked == 2 {
			tv = 1
		}
		if sD.Valid(e, tv) {
			assign(e, tv)
			picked++
			if picked == 1 {
				check("one assignment")
			}
		}
	}
	if picked < 3 {
		t.Fatalf("only %d valid assignments found", picked)
	}
	check("stacked interval")
	if err := sD.UnassignLast(); err != nil {
		t.Fatal(err)
	}
	if err := sS.UnassignLast(); err != nil {
		t.Fatal(err)
	}
	check("after undo")
}

func TestBuilderAutoRepresentation(t *testing.T) {
	build := func(density float64, users int) *Instance {
		r := randx.New(11)
		b, err := NewBuilder([]Event{{Resources: 1}, {Resources: 1}}, make([]Interval, 2), nil, users, 4, RepAuto)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float32, 2)
		act := make([]float32, 2)
		for u := 0; u < users; u++ {
			for i := range row {
				row[i] = 0
				if r.Float64() < density {
					row[i] = 0.5
				}
			}
			if err := b.AddUser(row, act); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	if inst := build(0.05, 300); !inst.IsSparse() {
		t.Error("auto built a low-density instance dense")
	}
	if inst := build(1, 300); inst.IsSparse() {
		t.Error("auto kept a fully dense instance sparse")
	}
	// Early densify: a dense workload larger than the check interval must
	// convert mid-build (observable only via the final representation here,
	// but it must not trip any bookkeeping).
	if inst := build(0.9, densifyCheckEvery+100); inst.IsSparse() {
		t.Error("auto kept a high-density instance sparse past the densify check")
	}
}

func TestBuilderErrors(t *testing.T) {
	b, err := NewBuilder([]Event{{Resources: 1}}, make([]Interval, 1), nil, 2, 4, RepSparse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a builder with missing users")
	}
	if err := b.AddUser([]float32{0.5, 0.5}, []float32{1}); err == nil {
		t.Error("AddUser accepted a mis-sized interest row")
	}
	if err := b.AddUser([]float32{0.5}, []float32{1, 1}); err == nil {
		t.Error("AddUser accepted a mis-sized activity row")
	}
	if err := b.AddUser([]float32{0.5}, []float32{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUser([]float32{0}, []float32{0}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUser([]float32{1}, []float32{0}); err == nil {
		t.Error("AddUser accepted a user past numUsers")
	}
}

func TestSparseMutationAndNonzeros(t *testing.T) {
	_, inst := buildPair(t, 5, 4, 2, 2, 30, 0.2)
	nnz := inst.InterestNonzeros()
	// Insert into an empty cell.
	u, e := -1, -1
	for uu := 0; uu < inst.NumUsers() && u < 0; uu++ {
		for ee := 0; ee < inst.NumEvents(); ee++ {
			if inst.Interest(uu, ee) == 0 {
				u, e = uu, ee
				break
			}
		}
	}
	if u < 0 {
		t.Fatal("no zero cell found")
	}
	inst.SetInterest(u, e, 0.625)
	if got := inst.Interest(u, e); got != 0.625 {
		t.Fatalf("inserted cell reads %v", got)
	}
	if got := inst.InterestNonzeros(); got != nnz+1 {
		t.Fatalf("nonzeros %d after insert, want %d", got, nnz+1)
	}
	// Replace in place.
	inst.SetInterest(u, e, 0.25)
	if got := inst.Interest(u, e); got != 0.25 {
		t.Fatalf("replaced cell reads %v", got)
	}
	// Remove by writing zero.
	inst.SetInterest(u, e, 0)
	if got := inst.Interest(u, e); got != 0 {
		t.Fatalf("removed cell reads %v", got)
	}
	if got := inst.InterestNonzeros(); got != nnz {
		t.Fatalf("nonzeros %d after remove, want %d", got, nnz)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseSnapshotIsolation(t *testing.T) {
	_, inst := buildPair(t, 9, 4, 2, 3, 25, 0.3)
	before := inst.Interest(3, 1)
	snap := inst.Snapshot()
	inst.SetInterest(3, 1, 0.875)
	if got := snap.Interest(3, 1); got != before {
		t.Fatalf("snapshot saw mutation: %v, want %v", got, before)
	}
	if got := inst.Interest(3, 1); got != 0.875 {
		t.Fatalf("original lost mutation: %v", got)
	}
	// The other direction: mutating the snapshot must not touch the original.
	snap2 := inst.Snapshot()
	snap2.SetCompetingInterest(1, 0, 0.125)
	if got := snap2.CompetingInterest(1, 0); got != 0.125 {
		t.Fatalf("snapshot mutation lost: %v", got)
	}
	if got := inst.CompetingInterest(1, 0); got == 0.125 && got != before {
		t.Fatalf("original saw snapshot mutation: %v", got)
	}
}

func TestSparseAddCompeting(t *testing.T) {
	dense, sparse := buildPair(t, 13, 5, 3, 2, 20, 0.4)
	col := make([]float32, 20)
	col[3], col[17] = 0.5, 0.75
	snap := sparse.Snapshot()
	for _, in := range []*Instance{dense, sparse} {
		if err := in.AddCompeting(Competing{Name: "late", Interval: 1}, col); err != nil {
			t.Fatal(err)
		}
	}
	sameProblem(t, dense, sparse)
	if got := sparse.CompetingInterest(17, sparse.NumCompeting()-1); got != 0.75 {
		t.Fatalf("new competing interest reads %v", got)
	}
	if snap.NumCompeting() != sparse.NumCompeting()-1 {
		t.Fatal("snapshot saw the appended competing event")
	}
	bad := make([]float32, 20)
	bad[0] = float32(math.NaN())
	if err := sparse.AddCompeting(Competing{Interval: 0}, bad); err == nil {
		t.Fatal("AddCompeting accepted a NaN interest value")
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	inst, err := NewInstance([]Event{{Resources: 1}}, make([]Interval, 1), nil, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst.SetInterest(0, 0, math.NaN())
	if err := inst.Validate(); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
		t.Fatalf("Validate let a NaN interest through: %v", err)
	}
	inst.SetInterest(0, 0, 0.5)
	inst.SetActivity(0, 0, math.Inf(1))
	if err := inst.Validate(); err == nil {
		t.Fatal("Validate let an Inf activity through")
	}
}

func TestNewInstanceSparseValidation(t *testing.T) {
	ev := []Event{{Resources: 1}}
	iv := make([]Interval, 1)
	cases := []struct {
		name string
		cols []SparseCol
	}{
		{"wrong column count", []SparseCol{}},
		{"length mismatch", []SparseCol{{Users: []uint32{0}, Mu: nil}}},
		{"descending users", []SparseCol{{Users: []uint32{2, 1}, Mu: []float32{0.5, 0.5}}}},
		{"duplicate users", []SparseCol{{Users: []uint32{1, 1}, Mu: []float32{0.5, 0.5}}}},
		{"user out of range", []SparseCol{{Users: []uint32{9}, Mu: []float32{0.5}}}},
		{"explicit zero", []SparseCol{{Users: []uint32{1}, Mu: []float32{0}}}},
	}
	for _, tc := range cases {
		if _, err := NewInstanceSparse(ev, iv, nil, 3, 4, tc.cols); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	inst, err := NewInstanceSparse(ev, iv, nil, 3, 4, []SparseCol{{Users: []uint32{0, 2}, Mu: []float32{0.5, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Interest(2, 0); got != 1 {
		t.Fatalf("Interest(2,0) = %v", got)
	}
	if got := inst.Interest(1, 0); got != 0 {
		t.Fatalf("Interest(1,0) = %v", got)
	}
}

func TestScaleCompetingInterestParity(t *testing.T) {
	for _, scale := range []float64{0.5, 0.001, 3} {
		dense, sparse := buildPair(t, 21, 6, 3, 4, 60, 0.3)
		dense.ScaleCompetingInterest(scale)
		sparse.ScaleCompetingInterest(scale)
		sameProblem(t, dense, sparse)
	}
}
