package core

import (
	"slices"
	"strings"
	"testing"
)

// mutateChainStep applies one mixed mutation to a snapshot of inst and
// returns the successor plus the delta the snapshot chain reports for it.
// Step index varies the touched cells so successive steps dirty different
// parts.
func mutateChainStep(t *testing.T, inst *Instance, step int) (*Instance, ScorerDelta) {
	t.Helper()
	next := inst.Snapshot()
	nE, nT, nU := next.NumEvents(), next.NumIntervals(), next.NumUsers()
	next.SetInterest(step%nU, step%nE, 0.73)
	next.SetInterest((step+2)%nU, (step*3+1)%nE, 0)
	if next.NumCompeting() > 0 {
		next.SetCompetingInterest((step+1)%nU, step%next.NumCompeting(), 0.31)
	}
	next.SetActivity((step+3)%nU, (step*2)%nT, 0.57)
	if step%2 == 1 {
		col := make([]float32, nU)
		for u := range col {
			if u%3 == step%3 {
				col[u] = 0.42
			}
		}
		tc := (step + 1) % nT
		if err := next.AddCompeting(Competing{Interval: tc}, col); err != nil {
			t.Fatal(err)
		}
	}
	return next, SnapshotDelta(inst, next)
}

// sameScorerBits asserts the two scorers hold bitwise-identical precompute
// and produce bitwise-identical scores over a probe schedule.
func sameScorerBits(t *testing.T, cold, warm *Scorer) {
	t.Helper()
	inst := cold.inst
	for tt := range cold.compSum {
		a, b := cold.compSum[tt], warm.compSum[tt]
		if (a == nil) != (b == nil) {
			t.Fatalf("compSum[%d] nil-ness differs: cold=%v warm=%v", tt, a == nil, b == nil)
		}
		for u := range a {
			if a[u] != b[u] {
				t.Fatalf("compSum[%d][%d]: cold=%x warm=%x", tt, u, a[u], b[u])
			}
		}
	}
	if (cold.act == nil) != (warm.act == nil) {
		t.Fatalf("weighted activity nil-ness differs")
	}
	for tt := range cold.act {
		for u := range cold.act[tt] {
			if cold.act[tt][u] != warm.act[tt][u] {
				t.Fatalf("act[%d][%d]: cold=%x warm=%x", tt, u, cold.act[tt][u], warm.act[tt][u])
			}
		}
	}
	// Probe Eq. 4 end to end: empty schedule, then a partially filled one.
	probe := func(s *Schedule) {
		for e := 0; e < inst.NumEvents(); e++ {
			for tt := 0; tt < inst.NumIntervals(); tt++ {
				a, b := cold.Score(s, e, tt), warm.Score(s, e, tt)
				if a != b {
					t.Fatalf("Score(e=%d,t=%d): cold=%x warm=%x", e, tt, a, b)
				}
			}
		}
	}
	s := NewSchedule(inst)
	probe(s)
	for e := 0; e < inst.NumEvents() && s.Len() < 3; e++ {
		for tt := 0; tt < inst.NumIntervals(); tt++ {
			if s.Valid(e, tt) {
				if err := s.Assign(e, tt); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	probe(s)
	if cu, wu := cold.Utility(s), warm.Utility(s); cu != wu {
		t.Fatalf("Utility: cold=%x warm=%x", cu, wu)
	}
}

// TestNewScorerFromDeltaBitIdentical drives a chain of mixed mutations
// (interest, competing interest, activity, AddCompeting) over dense and
// sparse instances, with and without ScorerOptions extensions, asserting at
// every step that the delta-rebuilt scorer is bitwise-identical to a cold
// build of the same snapshot.
func TestNewScorerFromDeltaBitIdentical(t *testing.T) {
	dense, sparse := buildPair(t, 11, 7, 4, 5, 60, 0.4)
	for name, inst := range map[string]*Instance{"dense": dense, "sparse": sparse} {
		for _, withOpts := range []bool{false, true} {
			opts := ScorerOptions{}
			if withOpts {
				w := make([]float64, inst.NumUsers())
				costs := make([]float64, inst.NumEvents())
				for u := range w {
					w[u] = 0.5 + float64(u%4)*0.25
				}
				for e := range costs {
					costs[e] = float64(e) * 0.01
				}
				opts = ScorerOptions{UserWeights: w, EventCost: costs}
			}
			t.Run(name, func(t *testing.T) {
				cur := inst
				prev, err := NewScorerWithOptions(cur, opts)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 4; step++ {
					next, d := mutateChainStep(t, cur, step)
					cold, err := NewScorerWithOptions(next, opts)
					if err != nil {
						t.Fatal(err)
					}
					warm, err := NewScorerFromDelta(prev, next, opts, d)
					if err != nil {
						t.Fatal(err)
					}
					sameScorerBits(t, cold, warm)
					cur, prev = next, warm
				}
			})
		}
	}
}

// TestSnapshotDeltaNormalized: the snapshot chain reports exactly the
// touched columns, sorted and deduplicated, in both representations; an
// untouched snapshot is clean and unrelated instances are all dirty.
func TestSnapshotDeltaNormalized(t *testing.T) {
	dense, sparse := buildPair(t, 5, 6, 4, 3, 40, 0.5)
	for name, inst := range map[string]*Instance{"dense": dense, "sparse": sparse} {
		t.Run(name, func(t *testing.T) {
			if d := SnapshotDelta(inst, inst.Snapshot()); !d.Empty() {
				t.Fatalf("untouched snapshot reported dirty: %+v", d)
			}
			next := inst.Snapshot()
			next.SetInterest(1, 4, 0.5)
			next.SetInterest(2, 1, 0.5)
			next.SetInterest(3, 4, 0.25)
			for c := 0; c < next.NumCompeting(); c++ {
				next.SetCompetingInterest(0, c, 0.5)
			}
			next.SetActivity(0, 3, 0.5)
			next.SetActivity(9, 3, 0.5)
			var comp []int
			for ti := 0; ti < inst.NumIntervals(); ti++ {
				if len(inst.CompetingAt(ti)) > 0 {
					comp = append(comp, ti)
				}
			}
			got := SnapshotDelta(inst, next)
			want := ScorerDelta{Events: []int{1, 4}, CompIntervals: comp, ActIntervals: []int{3}}
			if !slices.Equal(got.Events, want.Events) || !slices.Equal(got.CompIntervals, want.CompIntervals) ||
				!slices.Equal(got.ActIntervals, want.ActIntervals) {
				t.Fatalf("SnapshotDelta = %+v, want %+v", got, want)
			}
			od, os := buildPair(t, 5, 6, 4, 3, 40, 0.5)
			other := map[string]*Instance{"dense": od, "sparse": os}[name]
			all := SnapshotDelta(inst, other)
			if len(all.Events) != inst.NumEvents() || len(all.ActIntervals) != inst.NumIntervals() {
				t.Fatalf("unrelated instance reported partly clean: %+v", all)
			}
		})
	}
}

// TestNewScorerFromDeltaRejects: shape/option mismatches and bad indices
// fail loudly instead of building a silently stale scorer.
func TestNewScorerFromDeltaRejects(t *testing.T) {
	dense, _ := buildPair(t, 5, 4, 3, 2, 10, 1)
	sc := NewScorer(dense)
	if _, err := NewScorerFromDelta(nil, dense, ScorerOptions{}, ScorerDelta{}); err == nil {
		t.Fatal("nil prev accepted")
	}
	if _, err := NewScorerFromDelta(sc, dense, ScorerOptions{}, ScorerDelta{Events: []int{99}}); err == nil {
		t.Fatal("out-of-range event accepted")
	}
	if _, err := NewScorerFromDelta(sc, dense, ScorerOptions{}, ScorerDelta{CompIntervals: []int{-1}}); err == nil {
		t.Fatal("out-of-range interval accepted")
	}
	w := make([]float64, dense.NumUsers())
	if _, err := NewScorerFromDelta(sc, dense, ScorerOptions{UserWeights: w}, ScorerDelta{}); err == nil || !strings.Contains(err.Error(), "weight-option") {
		t.Fatalf("weight-option mismatch not rejected: %v", err)
	}
	other, _ := buildPair(t, 5, 4, 3, 2, 11, 1)
	if _, err := NewScorerFromDelta(sc, other, ScorerOptions{}, ScorerDelta{}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
