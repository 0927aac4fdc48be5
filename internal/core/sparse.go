package core

import (
	"fmt"
	"math"
	"sort"
)

// Sparse interest representation.
//
// The paper's real datasets are highly sparse — a Meetup user cares about a
// handful of topic categories and finds most events uninteresting, which
// dataset.Stats.ZeroInterestFrac measures directly — yet the dense layout
// stores all (|E|+|C|)×|U| µ cells. At the ROADMAP's million-user scale that
// is gigabytes of zeros: a 1M-user, 500-event instance is ~2 GB dense but
// ~200 MB at 5% density as nonzero lists. The user–event interest structure
// is a sparse bipartite graph, and per-column adjacency lists (the standard
// layout for enumerating structures in large sparse bipartite graphs) make
// both memory and every Eq. 1-4 pass proportional to nonzeros instead of the
// dense cross product.
//
// A sparse instance stores, per interest column (candidate events first,
// then competing events), the nonzero (user, µ) pairs in ascending user
// order. Everything else — the activity matrix, schedules, scorers — is
// unchanged. Crucially, the sparse scoring kernel is bit-identical to the
// dense ones: in every case of the Eq. 4 kernel a µ = 0 term contributes
// exactly +0.0 to the accumulator (see sparseKernel.ScoreRange in
// kernel_sparse.go), so skipping zeros while keeping the ascending user order
// reproduces the dense sum bit for bit, at every worker count of the
// internal/score engine.

// SparseCol holds one interest column's nonzero entries: Users[i] is the
// user index of the i-th nonzero and Mu[i] its µ value. Users is strictly
// ascending. Both slices always have equal length.
type SparseCol struct {
	Users []uint32
	Mu    []float32
}

// clone deep-copies the column.
func (c SparseCol) clone() SparseCol {
	return SparseCol{
		Users: append([]uint32(nil), c.Users...),
		Mu:    append([]float32(nil), c.Mu...),
	}
}

// find returns the position of user in the column and whether it is present;
// absent users report the insertion position.
func (c SparseCol) find(user int) (int, bool) {
	i := sort.Search(len(c.Users), func(i int) bool { return int(c.Users[i]) >= user })
	return i, i < len(c.Users) && int(c.Users[i]) == user
}

// get returns µ(user) (0 when absent).
func (c SparseCol) get(user int) float32 {
	if i, ok := c.find(user); ok {
		return c.Mu[i]
	}
	return 0
}

// set updates µ(user), inserting, replacing or removing the entry so the
// column never stores explicit zeros.
func (c *SparseCol) set(user int, v float32) {
	i, ok := c.find(user)
	switch {
	case ok && v != 0:
		c.Mu[i] = v
	case ok: // v == 0: remove
		c.Users = append(c.Users[:i], c.Users[i+1:]...)
		c.Mu = append(c.Mu[:i], c.Mu[i+1:]...)
	case v != 0: // insert at i
		c.Users = append(c.Users, 0)
		copy(c.Users[i+1:], c.Users[i:])
		c.Users[i] = uint32(user)
		c.Mu = append(c.Mu, 0)
		copy(c.Mu[i+1:], c.Mu[i:])
		c.Mu[i] = v
	}
}

// validate checks the structural invariants of one column.
func (c SparseCol) validate(h, numUsers int) error {
	if len(c.Users) != len(c.Mu) {
		return fmt.Errorf("core: sparse column %d has %d users but %d values", h, len(c.Users), len(c.Mu))
	}
	prev := -1
	for i, u := range c.Users {
		if int(u) <= prev {
			return fmt.Errorf("core: sparse column %d users not strictly ascending at position %d (user %d)", h, i, u)
		}
		if int(u) >= numUsers {
			return fmt.Errorf("core: sparse column %d references user %d, have %d users", h, u, numUsers)
		}
		prev = int(u)
		if c.Mu[i] == 0 {
			return fmt.Errorf("core: sparse column %d stores an explicit zero for user %d", h, u)
		}
	}
	return nil
}

// IsSparse reports whether the instance stores its interest matrix as sparse
// nonzero columns.
func (in *Instance) IsSparse() bool { return in.sparse != nil }

// SparseInterest returns the per-column nonzero lists of a sparse instance
// (candidate events first, then competing events), or nil for a dense one.
// The returned slices alias instance state; callers must not modify them.
func (in *Instance) SparseInterest() []SparseCol { return in.sparse }

// InterestNonzeros returns the number of stored nonzero µ cells of a sparse
// instance; for a dense instance it counts the nonzero cells with a scan.
func (in *Instance) InterestNonzeros() int64 {
	if in.sparse != nil {
		var n int64
		for i := range in.sparse {
			n += int64(len(in.sparse[i].Users))
		}
		return n
	}
	var n int64
	for _, col := range in.interest {
		for _, v := range col {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// ColNonzeros returns the stored cell count of interest column h (candidate
// events first, then competing): the nonzero-list length on a sparse
// instance, |U| on a dense one (every cell is stored). This is the per-pass
// work of a kernel streaming that column — what cmd/kernelbench normalizes
// its timings by.
func (in *Instance) ColNonzeros(h int) int {
	if in.sparse != nil {
		return len(in.sparse[h].Users)
	}
	return in.numUsers
}

// NewInstanceSparse allocates an instance whose interest matrix is the given
// sparse columns (len(cols) must be |E|+|C|, candidate events first). The
// column slices are taken over by the instance; callers must not reuse them.
// Value-range invariants (µ ∈ [0,1]) are checked by Validate, as for the
// dense constructor; the structural invariants (ascending users, no explicit
// zeros) are checked here.
func NewInstanceSparse(events []Event, intervals []Interval, competing []Competing, numUsers int, theta float64, cols []SparseCol) (*Instance, error) {
	if err := validateShape(events, intervals, competing, numUsers, theta); err != nil {
		return nil, err
	}
	if numUsers > math.MaxUint32 {
		return nil, fmt.Errorf("core: sparse instances support at most %d users, got %d", math.MaxUint32, numUsers)
	}
	if len(cols) != len(events)+len(competing) {
		return nil, fmt.Errorf("core: %d sparse columns for %d events + %d competing", len(cols), len(events), len(competing))
	}
	for h := range cols {
		if err := cols[h].validate(h, numUsers); err != nil {
			return nil, err
		}
	}
	return newInstance(events, intervals, competing, numUsers, theta, nil, cols,
		splitCols(make([]float32, numUsers*len(intervals)), len(intervals), numUsers)), nil
}

// Rep selects the interest-matrix representation of a built instance.
type Rep int

// Representations. RepAuto measures the accumulated density at build time
// and picks sparse when it pays (see autoSparseMaxDensity).
const (
	RepAuto Rep = iota
	RepDense
	RepSparse
)

// String returns the CLI label of the representation.
func (r Rep) String() string {
	switch r {
	case RepAuto:
		return "auto"
	case RepDense:
		return "dense"
	case RepSparse:
		return "sparse"
	}
	return fmt.Sprintf("Rep(%d)", int(r))
}

// ParseRep resolves the CLI labels back to representations.
func ParseRep(s string) (Rep, error) {
	switch s {
	case "", "auto":
		return RepAuto, nil
	case "dense":
		return RepDense, nil
	case "sparse":
		return RepSparse, nil
	}
	return 0, fmt.Errorf("core: unknown representation %q (auto|dense|sparse)", s)
}

// autoSparseMaxDensity is the densest interest matrix RepAuto still stores
// sparse. A sparse entry costs 8 bytes against 4 per dense cell, so memory
// breaks even at 50% density; below a quarter the sparse layout is at most
// half the dense footprint and the kernels' indirection pays for itself.
const autoSparseMaxDensity = 0.25

// densifyCheckEvery is how often (in users) the auto builder re-measures the
// accumulated density; densifyEarlyDensity is the running density above which
// it converts to dense immediately, bounding the transient memory overhead of
// accumulating a dense workload as nonzero lists before Build decides.
const (
	densifyCheckEvery   = 4096
	densifyEarlyDensity = 0.5
)

// Builder accumulates per-user interest and activity rows and builds an
// Instance, choosing the interest representation from the measured sparsity
// (or an explicit Rep). It is how the dataset generators emit sparse columns
// directly: rows arrive in user order, nonzeros append to their column's
// list, and no dense |E|+|C| × |U| matrix is ever materialized unless the
// data is dense enough to warrant one. A dense and a sparse build fed the
// same rows hold identical logical content — every accessor, score and
// schedule agrees bit for bit — though their Digests differ (each
// representation hashes under its own domain tag; see Digest).
type Builder struct {
	events    []Event
	intervals []Interval
	competing []Competing
	theta     float64
	numUsers  int
	rep       Rep

	next     int // users added so far
	cols     []SparseCol
	dense    []float32 // non-nil once densified (or from the start for RepDense)
	nnz      int64
	activity []float32
}

// NewBuilder validates the instance shape and returns an empty builder.
// AddUser must then be called exactly numUsers times, in user order.
func NewBuilder(events []Event, intervals []Interval, competing []Competing, numUsers int, theta float64, rep Rep) (*Builder, error) {
	if err := validateShape(events, intervals, competing, numUsers, theta); err != nil {
		return nil, err
	}
	if rep != RepDense && numUsers > math.MaxUint32 {
		return nil, fmt.Errorf("core: sparse instances support at most %d users, got %d", math.MaxUint32, numUsers)
	}
	b := &Builder{
		events:    events,
		intervals: intervals,
		competing: competing,
		theta:     theta,
		numUsers:  numUsers,
		rep:       rep,
		activity:  make([]float32, numUsers*len(intervals)),
	}
	if rep == RepDense {
		b.dense = make([]float32, numUsers*(len(events)+len(competing)))
	} else {
		b.cols = make([]SparseCol, len(events)+len(competing))
	}
	return b, nil
}

// AddUser appends the next user's interest row (|E| candidate affinities
// followed by |C| competing affinities) and activity row (|T| values).
// Zero interests cost nothing; negative zeros are canonicalized to +0.
func (b *Builder) AddUser(interest, activity []float32) error {
	if b.next >= b.numUsers {
		return fmt.Errorf("core: builder already has all %d users", b.numUsers)
	}
	if len(interest) != len(b.events)+len(b.competing) {
		return fmt.Errorf("core: interest row has %d values, want %d", len(interest), len(b.events)+len(b.competing))
	}
	if len(activity) != len(b.intervals) {
		return fmt.Errorf("core: activity row has %d values, want %d", len(activity), len(b.intervals))
	}
	u := b.next
	if b.dense != nil {
		for h, v := range interest {
			if v == 0 {
				continue // leaves +0, canonicalizing -0 like the sparse path
			}
			b.dense[h*b.numUsers+u] = v
			b.nnz++
		}
	} else {
		for h, v := range interest {
			if v == 0 {
				continue
			}
			b.cols[h].Users = append(b.cols[h].Users, uint32(u))
			b.cols[h].Mu = append(b.cols[h].Mu, v)
			b.nnz++
		}
	}
	for t, v := range activity {
		b.activity[t*b.numUsers+u] = v
	}
	b.next++
	if b.rep == RepAuto && b.dense == nil && b.next%densifyCheckEvery == 0 &&
		b.density() > densifyEarlyDensity {
		b.densify()
	}
	return nil
}

// density returns the accumulated nonzero fraction over the rows added so far.
func (b *Builder) density() float64 {
	cells := float64(b.next) * float64(len(b.events)+len(b.competing))
	if cells == 0 {
		return 0
	}
	return float64(b.nnz) / cells
}

// densify converts the accumulated sparse columns to a dense matrix.
func (b *Builder) densify() {
	b.dense = make([]float32, b.numUsers*(len(b.events)+len(b.competing)))
	for h := range b.cols {
		col := b.cols[h]
		base := h * b.numUsers
		for i, u := range col.Users {
			b.dense[base+int(u)] = col.Mu[i]
		}
	}
	b.cols = nil
}

// Build finalizes the instance. With RepAuto the representation is chosen
// from the measured density: sparse iff at most autoSparseMaxDensity of the
// cells are nonzero.
func (b *Builder) Build() (*Instance, error) {
	if b.next != b.numUsers {
		return nil, fmt.Errorf("core: builder has %d of %d users", b.next, b.numUsers)
	}
	if b.rep == RepAuto && b.dense == nil && b.density() > autoSparseMaxDensity {
		b.densify()
	}
	var dense [][]float32
	if b.dense != nil {
		dense = splitCols(b.dense, len(b.events)+len(b.competing), b.numUsers)
	}
	in := newInstance(b.events, b.intervals, b.competing, b.numUsers, b.theta, dense, b.cols,
		splitCols(b.activity, len(b.intervals), b.numUsers))
	b.dense, b.cols, b.activity = nil, nil, nil // the instance owns them now
	return in, nil
}

// addInterestColInto accumulates column h into dst: dst[u] += µ(u, h). It is
// the shared primitive behind the scorer's competing-sum precompute and the
// schedule's per-interval running interest sums — the accumulation half of
// the Eq. 4 kernel. It lives on the instance because Schedule.Assign has no
// Scorer in hand; the representation picks the loop, as it does for
// Scorer.scoreUserRange. The dense loop adds exact +0.0 for every zero cell,
// so the sparse loop, which skips them, is bit-identical.
func (in *Instance) addInterestColInto(h int, dst []float64) {
	if in.sparse != nil {
		col := in.sparse[h]
		for i, u := range col.Users {
			dst[u] += float64(col.Mu[i])
		}
		return
	}
	for u, v := range in.interest[h] {
		dst[u] += float64(v)
	}
}

// subInterestColInto subtracts column h from dst (UnassignLast's undo).
func (in *Instance) subInterestColInto(h int, dst []float64) {
	if in.sparse != nil {
		col := in.sparse[h]
		for i, u := range col.Users {
			dst[u] -= float64(col.Mu[i])
		}
		return
	}
	for u, v := range in.interest[h] {
		dst[u] -= float64(v)
	}
}

// ScaleCompetingInterest multiplies every competing-event interest by scale
// (1 or 0 = no-op), clamping to [0,1] — the bulk form behind the dataset
// generators' competing-interest knob, implemented on the instance so it runs
// representation-natively. Entries that underflow to zero are dropped from
// sparse columns (a dense matrix stores the same logical zero).
func (in *Instance) ScaleCompetingInterest(scale float64) {
	if scale == 0 || scale == 1 {
		return
	}
	if scale < 0 {
		panic("core: negative competing-interest scale")
	}
	base := len(in.Events)
	if in.sparse != nil {
		for h := base; h < len(in.sparse); h++ {
			in.ownInterestCol(h)
			col := &in.sparse[h]
			out := 0
			for i := range col.Users {
				v := float64(col.Mu[i]) * scale
				if v > 1 {
					v = 1
				}
				if m := float32(v); m != 0 {
					col.Users[out], col.Mu[out] = col.Users[i], m
					out++
				}
			}
			col.Users, col.Mu = col.Users[:out], col.Mu[:out]
		}
		return
	}
	for h := base; h < len(in.interest); h++ {
		in.ownInterestCol(h)
		col := in.interest[h]
		for u, m := range col {
			v := float64(m) * scale
			if v > 1 {
				v = 1
			}
			col[u] = float32(v)
		}
	}
}
