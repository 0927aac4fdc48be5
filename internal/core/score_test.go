package core

import (
	"math"
	"testing"

	"repro/internal/randx"
)

const scoreTol = 5e-4 // float32 interest storage bounds per-user error well below this

// Figure 2 row ①: the initial assignment scores of the running example.
// Values recomputed exactly from Figure 1 via Eq. 4; the paper prints them
// rounded to two decimals (0.59, 0.52, 0.10, 0.64 / 0.53, 0.57, 0.09, 0.66).
var fig2Initial = [4][2]float64{
	{0.590196, 0.530556}, // e1 @ t1, t2
	{0.518182, 0.573077}, // e2
	{0.100000, 0.087500}, // e3
	{0.642857, 0.656410}, // e4
}

func TestRunningExampleInitialScores(t *testing.T) {
	inst := RunningExample()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	for e := 0; e < 4; e++ {
		for tv := 0; tv < 2; tv++ {
			got := sc.Score(s, e, tv)
			if math.Abs(got-fig2Initial[e][tv]) > scoreTol {
				t.Errorf("score(e%d, t%d) = %.6f, want %.6f", e+1, tv+1, got, fig2Initial[e][tv])
			}
		}
	}
}

// Figure 2 row ②: scores after α(e4,t2) is selected. The t1 column is
// unchanged; the t2 scores shrink because e4 now competes for attendance.
// Note: the paper prints α(e1,t2).S = 0.34, which equals ω'(e1,t2) alone;
// Eq. 4 (gain including e4's loss) gives 0.1336 — see README "Deviations from
// the paper". The neighbouring printed values 0.16 and 0.03 match Eq. 4.
func TestRunningExampleScoresAfterFirstSelection(t *testing.T) {
	inst := RunningExample()
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	if err := s.Assign(3, 1); err != nil { // e4 → t2
		t.Fatal(err)
	}
	want := map[[2]int]float64{
		{0, 0}: 0.590196, // e1@t1 unchanged
		{1, 0}: 0.518182, // e2@t1 unchanged
		{2, 0}: 0.100000, // e3@t1 unchanged
		{0, 1}: 0.133590, // e1@t2 (paper misprints 0.34)
		{1, 1}: 0.160696, // e2@t2 (paper: 0.16)
		{2, 1}: 0.026923, // e3@t2 (paper: 0.03)
	}
	for k, w := range want {
		got := sc.Score(s, k[0], k[1])
		if math.Abs(got-w) > scoreTol {
			t.Errorf("score(e%d, t%d) = %.6f, want %.6f", k[0]+1, k[1]+1, got, w)
		}
	}
}

// Figure 2 row ③: after α(e4,t2) and α(e1,t1), α(e3,t1) updates to 0.05 and
// α(e2,t1) becomes infeasible (Stage 1 is taken by e1).
func TestRunningExampleScoresAfterSecondSelection(t *testing.T) {
	inst := RunningExample()
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	mustAssign(t, s, 3, 1) // e4 → t2
	mustAssign(t, s, 0, 0) // e1 → t1
	if got := sc.Score(s, 2, 0); math.Abs(got-0.047619) > scoreTol {
		t.Errorf("score(e3, t1) = %.6f, want 0.047619", got)
	}
	if s.Valid(1, 0) {
		t.Error("α(e2,t1) should be infeasible: Stage 1 already hosts e1")
	}
	if !s.Valid(1, 1) {
		t.Error("α(e2,t2) should remain valid")
	}
}

// The final ALG/INC schedule of the running example is {e4@t2, e1@t1, e2@t2}
// with Ω = 0.590196 + 0.817106 = 1.407302, which also equals the sum of the
// selected marginal gains (a telescoping identity of Eq. 4).
func TestRunningExampleFinalUtility(t *testing.T) {
	inst := RunningExample()
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	gains := 0.0
	for _, a := range []Assignment{{3, 1}, {0, 0}, {1, 1}} {
		gains += sc.Score(s, a.Event, a.Interval)
		mustAssign(t, s, a.Event, a.Interval)
	}
	u := sc.Utility(s)
	if math.Abs(u-1.407302) > scoreTol {
		t.Errorf("Ω = %.6f, want 1.407302", u)
	}
	if math.Abs(u-gains) > 1e-9 {
		t.Errorf("Ω = %.9f but selected gains sum to %.9f; Eq. 4 must telescope", u, gains)
	}
	// Per-event attendances must sum to Ω.
	sum := 0.0
	for _, a := range s.Assignments() {
		sum += sc.EventAttendance(s, a.Event)
	}
	if math.Abs(u-sum) > 1e-9 {
		t.Errorf("Σω = %.9f, want Ω = %.9f", sum, u)
	}
	// ω(e2,t2) = 0.346053, ω(e4,t2) = 0.471053 after both share t2.
	if got := sc.EventAttendance(s, 1); math.Abs(got-0.346053) > scoreTol {
		t.Errorf("ω(e2,t2) = %.6f, want 0.346053", got)
	}
	if got := sc.EventAttendance(s, 3); math.Abs(got-0.471053) > scoreTol {
		t.Errorf("ω(e4,t2) = %.6f, want 0.471053", got)
	}
}

func mustAssign(t *testing.T, s *Schedule, e, iv int) {
	t.Helper()
	if err := s.Assign(e, iv); err != nil {
		t.Fatal(err)
	}
}

func TestRhoProperties(t *testing.T) {
	inst := RunningExample()
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	mustAssign(t, s, 3, 1)
	mustAssign(t, s, 1, 1)
	for u := 0; u < inst.NumUsers(); u++ {
		sum := 0.0
		for _, e := range []int{1, 3} {
			r := sc.Rho(s, u, e)
			if r < 0 || r > 1 {
				t.Fatalf("ρ(u%d, e%d) = %v out of [0,1]", u, e, r)
			}
			sum += r
		}
		if sigma := inst.Activity(u, 1); sum > sigma+1e-9 {
			t.Fatalf("Σρ = %v exceeds σ = %v for user %d", sum, sigma, u)
		}
	}
}

func TestRhoPanicsOnUnassigned(t *testing.T) {
	inst := RunningExample()
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	defer func() {
		if recover() == nil {
			t.Fatal("Rho on unassigned event did not panic")
		}
	}()
	sc.Rho(s, 0, 0)
}

// randomInstance builds a small random instance for property tests.
func randomInstance(seed uint64, nE, nT, nC, nU int) *Instance {
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
	inst, err := NewInstance(events, intervals, competing, nU, 6)
	if err != nil {
		panic(err)
	}
	row := make([]float32, inst.NumEvents()+inst.NumCompeting())
	act := make([]float32, inst.NumIntervals())
	for u := 0; u < nU; u++ {
		for i := range row {
			row[i] = float32(r.Float64())
		}
		inst.SetInterestRow(u, row)
		for i := range act {
			act[i] = float32(r.Float64())
		}
		inst.SetActivityRow(u, act)
	}
	return inst
}

// Monotonicity behind Proposition 1: assigning any event to an interval can
// only lower (never raise) the score of any other assignment in that
// interval, and leaves other intervals' scores untouched.
func TestScoreMonotonicityUnderAssignment(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		inst := randomInstance(seed, 8, 3, 4, 30)
		sc := NewScorer(inst)
		s := NewSchedule(inst)
		before := make([][]float64, inst.NumEvents())
		for e := range before {
			before[e] = make([]float64, inst.NumIntervals())
			for tv := range before[e] {
				before[e][tv] = sc.Score(s, e, tv)
			}
		}
		// Assign a random valid event to interval 0.
		assigned := -1
		for e := 0; e < inst.NumEvents(); e++ {
			if s.Valid(e, 0) {
				mustAssign(t, s, e, 0)
				assigned = e
				break
			}
		}
		if assigned < 0 {
			t.Fatal("no valid assignment in fresh schedule")
		}
		for e := 0; e < inst.NumEvents(); e++ {
			if e == assigned {
				continue
			}
			if got := sc.Score(s, e, 0); got > before[e][0]+1e-9 {
				t.Fatalf("seed %d: score(e%d,t0) rose from %v to %v after assignment", seed, e, before[e][0], got)
			}
			for tv := 1; tv < inst.NumIntervals(); tv++ {
				if got := sc.Score(s, e, tv); math.Abs(got-before[e][tv]) > 1e-12 {
					t.Fatalf("seed %d: score(e%d,t%d) changed across intervals", seed, e, tv)
				}
			}
		}
	}
}

// The telescoping identity: Ω of a schedule equals the sum of the Eq. 4
// scores measured at each assignment step, for any assignment order.
func TestUtilityTelescopes(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		inst := randomInstance(seed, 10, 4, 5, 25)
		sc := NewScorer(inst)
		s := NewSchedule(inst)
		r := randx.New(seed * 77)
		gains := 0.0
		for steps := 0; steps < 6; steps++ {
			e, tv := r.Intn(inst.NumEvents()), r.Intn(inst.NumIntervals())
			if !s.Valid(e, tv) {
				continue
			}
			gains += sc.Score(s, e, tv)
			mustAssign(t, s, e, tv)
		}
		if u := sc.Utility(s); math.Abs(u-gains) > 1e-9 {
			t.Fatalf("seed %d: Ω = %v, telescoped gains = %v", seed, u, gains)
		}
	}
}

func TestUtilityMatchesEventAttendanceSum(t *testing.T) {
	inst := randomInstance(99, 12, 5, 8, 40)
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			if s.Valid(e, tv) {
				mustAssign(t, s, e, tv)
				break
			}
		}
	}
	sum := 0.0
	for _, a := range s.Assignments() {
		sum += sc.EventAttendance(s, a.Event)
	}
	if u := sc.Utility(s); math.Abs(u-sum) > 1e-9 {
		t.Fatalf("Ω = %v, Σω = %v", u, sum)
	}
}

func TestCompetingSum(t *testing.T) {
	inst := RunningExample()
	sc := NewScorer(inst)
	if got := sc.CompetingSum(0, 0); math.Abs(got-0.8) > 1e-6 {
		t.Errorf("CompetingSum(u1, t1) = %v, want 0.8", got)
	}
	if got := sc.CompetingSum(1, 1); math.Abs(got-0.7) > 1e-6 {
		t.Errorf("CompetingSum(u2, t2) = %v, want 0.7", got)
	}
}

func TestScoreEmptyIntervalNoCompetition(t *testing.T) {
	// With no competing events and an empty interval, score = Σ σ over
	// interested users regardless of the magnitude of µ.
	inst, err := NewInstance(
		[]Event{{Location: 0, Resources: 1}, {Location: 1, Resources: 1}},
		[]Interval{{}},
		nil, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	inst.SetInterest(0, 0, 0.01)
	inst.SetInterest(1, 0, 0.99)
	// user 2 has zero interest in event 0.
	for u := 0; u < 3; u++ {
		inst.SetActivity(u, 0, 0.5)
	}
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	if got := sc.Score(s, 0, 0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("score = %v, want 1.0 (σ of the two interested users)", got)
	}
}

func TestZeroInterestUserContributesNothing(t *testing.T) {
	inst := randomInstance(5, 6, 2, 3, 10)
	// Zero out user 0 entirely.
	zero := make([]float32, inst.NumEvents()+inst.NumCompeting())
	inst.SetInterestRow(0, zero)
	sc := NewScorer(inst)
	s := NewSchedule(inst)
	base := sc.Score(s, 0, 0)
	// Recompute with user 0 fully active: identical since µ = 0.
	inst.SetActivity(0, 0, 1)
	sc2 := NewScorer(inst)
	if got := sc2.Score(s, 0, 0); math.Abs(got-base) > 1e-12 {
		t.Errorf("zero-interest user changed the score: %v vs %v", got, base)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
