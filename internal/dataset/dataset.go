// Package dataset generates SES problem instances: the synthetic workloads
// of Table 1 (uniform, normal and zipfian interest distributions over the
// full parameter grid) and generative stand-ins for the paper's two real
// datasets — Meetup (California, 42,444 users × ~16K events) and Concerts
// (Yahoo! Music, 379,391 users × 89K albums).
//
// The real datasets are proprietary dumps we cannot redistribute; MeetupSim
// and ConcertsSim synthesize data with the structural properties the
// evaluation depends on (see README "Deviations from the paper"): clustered,
// long-tailed interests for Meetup, and the genre-rating interest derivation
// of Section 4.1 for Concerts. Every generator is deterministic in its seed.
package dataset

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/randx"
)

// Distribution selects how interest (and activity) values are drawn,
// following Table 1: Uniform, Normal(0.5, 0.25) and Zipfian with exponent
// 1, 2 or 3.
type Distribution int

// Distributions of Table 1.
const (
	Uniform Distribution = iota
	Normal
	Zipf1
	Zipf2
	Zipf3
)

// String returns the short dataset label used in the paper's plots.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "Unf"
	case Normal:
		return "Nrm"
	case Zipf1:
		return "Zip1"
	case Zipf2:
		return "Zip"
	case Zipf3:
		return "Zip3"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// ParseDistribution resolves the plot labels back to distributions.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "Unf", "unf", "uniform":
		return Uniform, nil
	case "Nrm", "nrm", "normal":
		return Normal, nil
	case "Zip1", "zip1":
		return Zipf1, nil
	case "Zip", "zip", "Zip2", "zip2", "zipf":
		return Zipf2, nil
	case "Zip3", "zip3":
		return Zipf3, nil
	}
	return 0, fmt.Errorf("dataset: unknown distribution %q", s)
}

// perEntity reports whether the distribution assigns a popularity level per
// event rather than drawing every (user, event) cell independently.
//
// For the zipfian datasets each event (candidate or competing) receives a
// zipf-distributed popularity and users' interests scatter around it. This
// per-event heterogeneity is what makes assignment scores spread out — the
// property behind the paper's observation that the bound-based methods
// (INC, HOR-I) prune well on Zip but poorly on Unf, where i.i.d. cells
// average out over |U| users and all scores cluster tightly.
func (d Distribution) perEntity() bool {
	switch d {
	case Zipf1, Zipf2, Zipf3:
		return true
	}
	return false
}

// zipfExponent returns the exponent of a zipfian distribution.
func (d Distribution) zipfExponent() float64 {
	switch d {
	case Zipf1:
		return 1
	case Zipf2:
		return 2
	case Zipf3:
		return 3
	}
	panic("dataset: not a zipfian distribution")
}

// sampler returns a draw-one-value function for the distribution. Zipf
// values are rank/N over 100 ranks (most draws tiny, a few large), giving
// the long-tailed profile the paper's zipfian datasets use.
func (d Distribution) sampler(r *randx.RNG) func() float64 {
	switch d {
	case Uniform:
		return r.Float64
	case Normal:
		return func() float64 { return r.NormClamped(0.5, 0.25, 0, 1) }
	case Zipf1:
		z := randx.NewZipf(100, 1)
		return func() float64 { return z.Value(r) }
	case Zipf2:
		z := randx.NewZipf(100, 2)
		return func() float64 { return z.Value(r) }
	case Zipf3:
		z := randx.NewZipf(100, 3)
		return func() float64 { return z.Value(r) }
	}
	panic("dataset: unknown distribution")
}

// Config is the synthetic-workload parameter set of Table 1. The zero value
// is not usable; start from DefaultConfig.
type Config struct {
	// Seed drives every random choice; equal configs generate equal
	// instances.
	Seed uint64

	// NumEvents is |E| (default 3k).
	NumEvents int
	// NumIntervals is |T| (default 3k/2).
	NumIntervals int
	// NumUsers is |U| (synthetic default 100K, scaled in benches).
	NumUsers int
	// NumLocations is the number of available event locations (default 50).
	NumLocations int

	// Theta is the organizer's available resources θ (default 30).
	Theta float64
	// ResourceMaxFrac bounds each event's required resources:
	// ξ_e ~ Uniform[1, ResourceMaxFrac·θ] (default 1/2 per Table 1).
	ResourceMaxFrac float64

	// CompetingMin/Max bound the per-interval competing-event count,
	// drawn uniformly (default [1, 16], mean 8.5 ≈ the 8.1 the paper
	// measured on Meetup).
	CompetingMin, CompetingMax int

	// Interest selects the µ distribution for candidate and competing
	// events; Activity selects the σ distribution (default Uniform).
	Interest Distribution
	Activity Distribution

	// CompetingInterestScale multiplies every competing-event interest
	// (clamped to [0,1]); 0 means the default 1.0. The knob isolates the
	// stacking phenomenon discussed in EXPERIMENTS.md: as competing
	// interest shrinks, the gain of co-locating events vanishes and HOR's
	// horizontal policy converges to ALG's greedy.
	CompetingInterestScale float64

	// Density, when in (0,1), keeps each interest cell with that
	// probability and zeroes the rest — the million-user sparse workloads
	// the README's Scaling section benchmarks. 0 (and 1) mean the
	// classical fully dense draws of Table 1, bit-identical to builds
	// before the knob existed.
	Density float64
	// Rep selects the instance's interest representation; the default
	// RepAuto measures the generated sparsity and picks dense or sparse
	// columns accordingly (core.Builder).
	Rep core.Rep
}

// DefaultConfig returns the paper's default parameter setting (bold values
// of Table 1) for a given number of scheduled events k: |E| = 3k,
// |T| = 3k/2, 50 locations, θ = 30, ξ ~ U[1, θ/2], competing ~ U[1,16],
// uniform activity, and numUsers users.
func DefaultConfig(k, numUsers int, interest Distribution, seed uint64) Config {
	return Config{
		Seed:            seed,
		NumEvents:       3 * k,
		NumIntervals:    3 * k / 2,
		NumUsers:        numUsers,
		NumLocations:    50,
		Theta:           30,
		ResourceMaxFrac: 0.5,
		CompetingMin:    1,
		CompetingMax:    16,
		Interest:        interest,
		Activity:        Uniform,
	}
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	switch {
	case c.NumEvents <= 0:
		return fmt.Errorf("dataset: NumEvents = %d", c.NumEvents)
	case c.NumIntervals <= 0:
		return fmt.Errorf("dataset: NumIntervals = %d", c.NumIntervals)
	case c.NumUsers <= 0:
		return fmt.Errorf("dataset: NumUsers = %d", c.NumUsers)
	case c.NumLocations <= 0:
		return fmt.Errorf("dataset: NumLocations = %d", c.NumLocations)
	case c.Theta <= 0:
		return fmt.Errorf("dataset: Theta = %v", c.Theta)
	case c.ResourceMaxFrac <= 0 || c.ResourceMaxFrac > 1:
		return fmt.Errorf("dataset: ResourceMaxFrac = %v out of (0,1]", c.ResourceMaxFrac)
	case c.CompetingMin < 0 || c.CompetingMax < c.CompetingMin:
		return fmt.Errorf("dataset: competing range [%d,%d]", c.CompetingMin, c.CompetingMax)
	case c.CompetingInterestScale < 0:
		return fmt.Errorf("dataset: CompetingInterestScale = %v", c.CompetingInterestScale)
	case c.Density < 0 || c.Density > 1:
		return fmt.Errorf("dataset: Density = %v out of [0,1]", c.Density)
	}
	return nil
}

// Generate builds a synthetic instance per the configuration.
func Generate(cfg Config) (*core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := randx.New(cfg.Seed)

	events := make([]core.Event, cfg.NumEvents)
	maxRes := cfg.ResourceMaxFrac * cfg.Theta
	if maxRes < 1 {
		maxRes = 1
	}
	for i := range events {
		events[i] = core.Event{
			Name:      fmt.Sprintf("e%d", i+1),
			Location:  r.Intn(cfg.NumLocations),
			Resources: float64(r.IntRange(1, int(maxRes))),
		}
	}
	intervals := make([]core.Interval, cfg.NumIntervals)
	for i := range intervals {
		intervals[i] = core.Interval{Name: fmt.Sprintf("t%d", i+1)}
	}
	var competing []core.Competing
	for t := 0; t < cfg.NumIntervals; t++ {
		n := r.IntRange(cfg.CompetingMin, cfg.CompetingMax)
		for j := 0; j < n; j++ {
			competing = append(competing, core.Competing{
				Name:     fmt.Sprintf("c%d.%d", t+1, j+1),
				Interval: t,
			})
		}
	}
	b, err := core.NewBuilder(events, intervals, competing, cfg.NumUsers, cfg.Theta, cfg.Rep)
	if err != nil {
		return nil, err
	}
	// keep thins interest cells to the configured density. At the default
	// (0 or 1) it draws nothing, so classical configs consume the exact
	// RNG stream they always did.
	keep := func() bool { return true }
	if cfg.Density > 0 && cfg.Density < 1 {
		keep = func() bool { return r.Float64() < cfg.Density }
	}
	activity := cfg.Activity.sampler(r)
	row := make([]float32, cfg.NumEvents+len(competing))
	act := make([]float32, cfg.NumIntervals)
	if cfg.Interest.perEntity() {
		// Zipfian interest: each event carries a zipf-distributed
		// popularity level; user interest scatters ±50% around it.
		z := randx.NewZipf(100, cfg.Interest.zipfExponent())
		pop := make([]float64, len(row))
		for i := range pop {
			pop[i] = z.Value(r)
		}
		for u := 0; u < cfg.NumUsers; u++ {
			for i := range row {
				row[i] = 0
				if keep() {
					v := pop[i] * r.Range(0.5, 1.5)
					if v > 1 {
						v = 1
					}
					row[i] = float32(v)
				}
			}
			for i := range act {
				act[i] = float32(activity())
			}
			if err := b.AddUser(row, act); err != nil {
				return nil, err
			}
		}
	} else {
		interest := cfg.Interest.sampler(r)
		for u := 0; u < cfg.NumUsers; u++ {
			for i := range row {
				row[i] = 0
				if keep() {
					row[i] = float32(interest())
				}
			}
			for i := range act {
				act[i] = float32(activity())
			}
			if err := b.AddUser(row, act); err != nil {
				return nil, err
			}
		}
	}
	inst, err := b.Build()
	if err != nil {
		return nil, err
	}
	if s := cfg.CompetingInterestScale; s != 0 && s != 1 {
		inst.ScaleCompetingInterest(s)
	}
	return inst, nil
}
