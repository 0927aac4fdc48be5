package dataset

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestGenerateDefaults(t *testing.T) {
	cfg := DefaultConfig(10, 50, Uniform, 1)
	inst, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.NumEvents() != 30 {
		t.Errorf("|E| = %d, want 3k = 30", inst.NumEvents())
	}
	if inst.NumIntervals() != 15 {
		t.Errorf("|T| = %d, want 3k/2 = 15", inst.NumIntervals())
	}
	if inst.NumUsers() != 50 {
		t.Errorf("|U| = %d, want 50", inst.NumUsers())
	}
	// Competing events per interval in [1, 16].
	perInterval := make(map[int]int)
	for _, c := range inst.Competing {
		perInterval[c.Interval]++
	}
	for tv := 0; tv < inst.NumIntervals(); tv++ {
		n := perInterval[tv]
		if n < 1 || n > 16 {
			t.Errorf("interval %d has %d competing events, want [1,16]", tv, n)
		}
	}
	// Resources in [1, θ/2].
	for _, e := range inst.Events {
		if e.Resources < 1 || e.Resources > cfg.Theta/2 {
			t.Errorf("event resources %v out of [1, %v]", e.Resources, cfg.Theta/2)
		}
		if e.Location < 0 || e.Location >= cfg.NumLocations {
			t.Errorf("event location %d out of range", e.Location)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig(5, 20, Zipf2, 42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		for e := 0; e < a.NumEvents(); e++ {
			if a.Interest(u, e) != b.Interest(u, e) {
				t.Fatal("same seed produced different interest matrices")
			}
		}
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for e := 0; e < a.NumEvents() && same; e++ {
		if a.Interest(0, e) != c.Interest(0, e) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical interest rows")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{},
		{NumEvents: 10},
		{NumEvents: 10, NumIntervals: 5, NumUsers: 10, NumLocations: 5, Theta: 0},
		{NumEvents: 10, NumIntervals: 5, NumUsers: 10, NumLocations: 5, Theta: 10, ResourceMaxFrac: 2},
		{NumEvents: 10, NumIntervals: 5, NumUsers: 10, NumLocations: 5, Theta: 10, ResourceMaxFrac: 0.5, CompetingMin: 5, CompetingMax: 2},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDistributionStatistics(t *testing.T) {
	// Uniform interests should average ~0.5; Zipf-2 interests are
	// long-tailed with a far lower mean; Normal sits near 0.5 with
	// smaller spread than Uniform.
	stats := func(d Distribution) (mean, variance float64) {
		cfg := DefaultConfig(5, 400, d, 7)
		inst, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum, sumSq float64
		n := 0
		for u := 0; u < inst.NumUsers(); u++ {
			for e := 0; e < inst.NumEvents(); e++ {
				v := inst.Interest(u, e)
				sum += v
				sumSq += v * v
				n++
			}
		}
		mean = sum / float64(n)
		variance = sumSq/float64(n) - mean*mean
		return mean, variance
	}
	mu, vu := stats(Uniform)
	if math.Abs(mu-0.5) > 0.02 {
		t.Errorf("uniform mean = %v", mu)
	}
	if math.Abs(vu-1.0/12) > 0.01 {
		t.Errorf("uniform variance = %v, want ~1/12", vu)
	}
	mz, _ := stats(Zipf2)
	if mz > 0.25 {
		t.Errorf("zipf-2 mean = %v, want a long tail well below 0.25", mz)
	}
	mn, vn := stats(Normal)
	if math.Abs(mn-0.5) > 0.02 {
		t.Errorf("normal mean = %v", mn)
	}
	if vn >= vu {
		t.Errorf("normal variance %v not below uniform %v", vn, vu)
	}
}

func TestDistributionStringRoundTrip(t *testing.T) {
	for _, d := range []Distribution{Uniform, Normal, Zipf1, Zipf2, Zipf3} {
		got, err := ParseDistribution(d.String())
		if err != nil {
			t.Fatalf("ParseDistribution(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("round trip %v → %q → %v", d, d.String(), got)
		}
	}
	if _, err := ParseDistribution("bogus"); err == nil {
		t.Error("bogus distribution accepted")
	}
}

func TestMeetupSimStructure(t *testing.T) {
	cfg := DefaultMeetupConfig(10, 80, 3)
	inst, err := MeetupSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	// Clustering: a substantial share of (user, event) interests must be
	// exactly zero (user follows none of the event's categories) — the
	// defining contrast with the dense synthetic matrices.
	zeros, total := 0, 0
	for u := 0; u < inst.NumUsers(); u++ {
		for e := 0; e < inst.NumEvents(); e++ {
			if inst.Interest(u, e) == 0 {
				zeros++
			}
			total++
		}
	}
	frac := float64(zeros) / float64(total)
	if frac < 0.2 || frac > 0.98 {
		t.Errorf("zero-interest fraction = %v, want clustered sparsity in [0.2, 0.98]", frac)
	}
}

func TestMeetupSimActivityVariesBySlot(t *testing.T) {
	cfg := DefaultMeetupConfig(10, 120, 11)
	inst, err := MeetupSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Average activity per slot must differ across slots (slot popularity).
	means := make([]float64, inst.NumIntervals())
	for tv := range means {
		sum := 0.0
		for u := 0; u < inst.NumUsers(); u++ {
			sum += inst.Activity(u, tv)
		}
		means[tv] = sum / float64(inst.NumUsers())
	}
	lo, hi := means[0], means[0]
	for _, m := range means {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi-lo < 0.05 {
		t.Errorf("slot activity means span only %v; want visible slot popularity structure", hi-lo)
	}
}

func TestMeetupSimValidation(t *testing.T) {
	cfg := DefaultMeetupConfig(10, 10, 1)
	cfg.CategoriesPerUser = 0
	if _, err := MeetupSim(cfg); err == nil {
		t.Error("CategoriesPerUser=0 accepted")
	}
	cfg = DefaultMeetupConfig(10, 10, 1)
	cfg.NumCategories = 0
	if _, err := MeetupSim(cfg); err == nil {
		t.Error("NumCategories=0 accepted")
	}
}

func TestConcertsSimInterestDerivation(t *testing.T) {
	cfg := DefaultConcertsConfig(10, 150, 5)
	inst, err := ConcertsSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	// The unrated-defaults-to-1 rule shifts interests upward: the mean
	// must sit clearly above 0.5 (most album genres are unrated by most
	// users) and no interest may be zero.
	var sum float64
	n := 0
	for u := 0; u < inst.NumUsers(); u++ {
		for e := 0; e < inst.NumEvents(); e++ {
			v := inst.Interest(u, e)
			if v <= 0 || v > 1 {
				t.Fatalf("concerts interest %v out of (0,1]", v)
			}
			sum += v
			n++
		}
	}
	if mean := sum / float64(n); mean < 0.6 {
		t.Errorf("concerts mean interest = %v, want > 0.6 (unrated genres default to 1)", mean)
	}
}

func TestConcertsSimValidation(t *testing.T) {
	cfg := DefaultConcertsConfig(10, 10, 1)
	cfg.MinRatedGenres = 0
	if _, err := ConcertsSim(cfg); err == nil {
		t.Error("MinRatedGenres=0 accepted")
	}
	cfg = DefaultConcertsConfig(10, 10, 1)
	cfg.GenresPerAlbum = cfg.NumGenres + 1
	if _, err := ConcertsSim(cfg); err == nil {
		t.Error("GenresPerAlbum > NumGenres accepted")
	}
}

func TestByNameAllDatasets(t *testing.T) {
	for _, name := range Names() {
		inst, err := ByName(name, Params{K: 8, NumUsers: 30, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.NumEvents() != 24 || inst.NumIntervals() != 12 {
			t.Errorf("%s: dims %dx%d, want 24x12", name, inst.NumEvents(), inst.NumIntervals())
		}
	}
}

func TestByNameOverrides(t *testing.T) {
	inst, err := ByName("Unf", Params{
		K: 8, NumUsers: 20, Seed: 2,
		NumEvents: 40, NumIntervals: 5, NumLocations: 3,
		CompetingMin: 2, CompetingMax: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumEvents() != 40 || inst.NumIntervals() != 5 {
		t.Errorf("overrides ignored: %dx%d", inst.NumEvents(), inst.NumIntervals())
	}
	perInterval := make(map[int]int)
	for _, c := range inst.Competing {
		perInterval[c.Interval]++
	}
	for tv := 0; tv < 5; tv++ {
		if n := perInterval[tv]; n < 2 || n > 4 {
			t.Errorf("interval %d has %d competing events, want [2,4]", tv, n)
		}
	}
	for _, e := range inst.Events {
		if e.Location >= 3 {
			t.Errorf("location %d with 3 available", e.Location)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("Unf", Params{}); err == nil {
		t.Error("zero params accepted")
	}
	if _, err := ByName("wat", Params{K: 5, NumUsers: 5}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// The generated instances must be schedulable end to end.
func TestGeneratedInstancesSchedulable(t *testing.T) {
	for _, name := range Names() {
		inst, err := ByName(name, Params{K: 6, NumUsers: 25, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewSchedule(inst)
		assigned := 0
		for e := 0; e < inst.NumEvents() && assigned < 6; e++ {
			for tv := 0; tv < inst.NumIntervals(); tv++ {
				if s.Valid(e, tv) {
					if err := s.Assign(e, tv); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					assigned++
					break
				}
			}
		}
		if assigned != 6 {
			t.Errorf("%s: only %d assignments possible", name, assigned)
		}
	}
}

// Measure gives the dataset substitutions a numeric identity: the properties
// README "Deviations from the paper" claims distinguish the workload families
// must actually hold.
func TestMeasureDistinguishesDatasets(t *testing.T) {
	get := func(name string) Stats {
		inst, err := ByName(name, Params{K: 10, NumUsers: 300, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return Measure(inst)
	}
	unf := get("Unf")
	zip := get("Zip")
	meetup := get("Meetup")
	concerts := get("Concerts")

	// Unf: dense, mean ~0.5, homogeneous event popularity.
	if unf.ZeroInterestFrac > 0.01 {
		t.Errorf("Unf zero fraction %v, want ~0", unf.ZeroInterestFrac)
	}
	if unf.EventPopularitySpread > 1.3 {
		t.Errorf("Unf popularity spread %v, want ≈1 (homogeneous)", unf.EventPopularitySpread)
	}
	// Zip: long tail — heterogeneous event popularity, low mean.
	if zip.EventPopularitySpread < 3 {
		t.Errorf("Zip popularity spread %v, want ≫1", zip.EventPopularitySpread)
	}
	if zip.InterestMean > unf.InterestMean {
		t.Errorf("Zip mean %v above Unf %v", zip.InterestMean, unf.InterestMean)
	}
	// Meetup: clustered sparsity.
	if meetup.ZeroInterestFrac < 0.2 {
		t.Errorf("Meetup zero fraction %v, want clustered sparsity", meetup.ZeroInterestFrac)
	}
	// Concerts: unrated-defaults-to-1 shifts the mean up, no zeros.
	if concerts.InterestMean < 0.6 {
		t.Errorf("Concerts mean %v, want > 0.6", concerts.InterestMean)
	}
	if concerts.ZeroInterestFrac != 0 {
		t.Errorf("Concerts zero fraction %v, want 0", concerts.ZeroInterestFrac)
	}
	// Every dataset's String renders without panicking and carries dims.
	for _, st := range []Stats{unf, zip, meetup, concerts} {
		if !strings.Contains(st.String(), "|E|=30") {
			t.Errorf("stats string malformed: %s", st)
		}
	}
}

func TestCompetingInterestScale(t *testing.T) {
	base, err := ByName("Unf", Params{K: 6, NumUsers: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ByName("Unf", Params{K: 6, NumUsers: 50, Seed: 9, CompetingInterestScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sb, ss := Measure(base), Measure(scaled)
	if math.Abs(ss.CompetingMassMean-0.1*sb.CompetingMassMean) > 1e-3 {
		t.Errorf("competing mass %v, want ≈0.1×%v", ss.CompetingMassMean, sb.CompetingMassMean)
	}
	// Candidate-event interests untouched.
	if sb.InterestMean != ss.InterestMean {
		t.Error("scaling competing interest changed candidate interests")
	}
	// Negative scale rejected.
	cfg := DefaultConfig(4, 10, Uniform, 1)
	cfg.CompetingInterestScale = -1
	if _, err := Generate(cfg); err == nil {
		t.Error("negative competing scale accepted")
	}
}
