package core

import (
	"slices"
	"sync"
	"testing"
)

func snapTestInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance(
		[]Event{{Name: "a", Location: 0, Resources: 1}, {Name: "b", Location: 1, Resources: 1}},
		[]Interval{{Name: "t0"}, {Name: "t1"}},
		[]Competing{{Name: "c0", Interval: 0}},
		3, 2,
	)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		inst.SetInterest(u, 0, 0.5)
		inst.SetInterest(u, 1, 0.25)
		inst.SetCompetingInterest(u, 0, 0.125)
		inst.SetActivity(u, 0, 1)
		inst.SetActivity(u, 1, 0.5)
	}
	return inst
}

func TestSnapshotIsolation(t *testing.T) {
	inst := snapTestInstance(t)
	snap := inst.Snapshot()

	// Mutating the original must not be visible through the snapshot.
	inst.SetInterest(0, 0, 0.9)
	inst.SetActivity(0, 0, 0.1)
	inst.SetCompetingInterest(0, 0, 0.7)
	if got := snap.Interest(0, 0); got != 0.5 {
		t.Errorf("snapshot interest mutated: got %v, want 0.5", got)
	}
	if got := snap.Activity(0, 0); got != 1.0 {
		t.Errorf("snapshot activity mutated: got %v, want 1", got)
	}
	if got := snap.CompetingInterest(0, 0); got != 0.125 {
		t.Errorf("snapshot competing interest mutated: got %v, want 0.125", got)
	}
	if got := inst.Interest(0, 0); got != float64(float32(0.9)) {
		t.Errorf("original lost its write: got %v, want 0.9", got)
	}

	// And the other direction: writes through a snapshot stay private.
	snap2 := inst.Snapshot()
	snap2.SetInterest(1, 1, 1)
	if got := inst.Interest(1, 1); got != 0.25 {
		t.Errorf("snapshot write leaked into original: got %v, want 0.25", got)
	}
}

func TestSnapshotRowMutators(t *testing.T) {
	inst := snapTestInstance(t)
	snap := inst.Snapshot()
	inst.SetInterestRow(2, []float32{1, 1, 1})
	inst.SetActivityRow(2, []float32{0, 0})
	if snap.Interest(2, 0) != 0.5 || snap.Activity(2, 0) != 1.0 {
		t.Error("row mutators leaked into snapshot")
	}
}

func TestAddCompetingCopies(t *testing.T) {
	inst := snapTestInstance(t)
	snap := inst.Snapshot()
	if err := inst.AddCompeting(Competing{Name: "c1", Interval: 1}, []float32{0.2, 0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	if inst.NumCompeting() != 2 || snap.NumCompeting() != 1 {
		t.Fatalf("competing counts: inst %d (want 2), snap %d (want 1)", inst.NumCompeting(), snap.NumCompeting())
	}
	if got := inst.CompetingInterest(0, 1); got != float64(float32(0.2)) {
		t.Errorf("new competing interest: got %v", got)
	}
	if got := snap.CompetingInterest(0, 0); got != 0.125 {
		t.Errorf("snapshot competing interest changed: got %v", got)
	}
	if err := inst.Validate(); err != nil {
		t.Errorf("grown instance invalid: %v", err)
	}

	// Error paths.
	if err := inst.AddCompeting(Competing{Interval: 99}, []float32{0, 0, 0}); err == nil {
		t.Error("out-of-range interval accepted")
	}
	if err := inst.AddCompeting(Competing{Interval: 0}, []float32{0}); err == nil {
		t.Error("short interest column accepted")
	}
	if err := inst.AddCompeting(Competing{Interval: 0}, []float32{2, 0, 0}); err == nil {
		t.Error("out-of-range interest value accepted")
	}
}

// TestSnapshotConcurrentReaders exercises the store's concurrency contract
// under -race: readers score against published snapshots while a writer
// produces successor versions through Snapshot + mutate.
func TestSnapshotConcurrentReaders(t *testing.T) {
	inst := snapTestInstance(t)
	var wg sync.WaitGroup
	cur := inst
	for i := 0; i < 20; i++ {
		snap := cur.Snapshot()
		wg.Add(1)
		go func(v *Instance, want float64) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				if got := v.Interest(0, 0); got != want {
					t.Errorf("snapshot drifted: got %v, want %v", got, want)
					return
				}
			}
		}(snap, snap.Interest(0, 0))
		next := cur.Snapshot()
		next.SetInterest(0, 0, float64(i)/20)
		cur = next
	}
	wg.Wait()
}

func TestDigest(t *testing.T) {
	a := snapTestInstance(t)
	b := snapTestInstance(t)
	if a.Digest() != b.Digest() {
		t.Error("identical instances digest differently")
	}
	snap := a.Snapshot()
	if snap.Digest() != b.Digest() {
		t.Error("snapshot digest differs from its source")
	}
	b.SetInterest(0, 0, 0.51)
	if a.Digest() == b.Digest() {
		t.Error("interest mutation did not change the digest")
	}
	c := snapTestInstance(t)
	c.SetActivity(2, 1, 0.75)
	if a.Digest() == c.Digest() {
		t.Error("activity mutation did not change the digest")
	}
	d := snapTestInstance(t)
	d.Events[0].Name = "renamed"
	if a.Digest() == d.Digest() {
		t.Error("metadata change did not change the digest")
	}
}

// TestDigestGolden pins the v1 digest (DigestV1) of a dense and a sparse
// instance through an interest edit, an activity edit and an AddCompeting.
// Format-1 WAL records carry these digests, so any change to the v1 byte
// stream — a storage layout change included — would make old records fail
// verification on replay.
func TestDigestGolden(t *testing.T) {
	dense, sparse := buildPair(t, 23, 6, 4, 3, 50, 0.4)
	want := map[string][4]string{
		"dense": {
			"4c092d5be7199ed407dadfc78eb8901b9d5f45d039d6051c0a24ccff5eaf6013",
			"8927b43289069a5da50d376da2ec131952d49c3a791f34eb767b2caa4c0b9cb2",
			"61cec29e4ae46333e3464aae8d53a7735aada885015c46daccfcbed1885339b6",
			"025f2c118081bc26f3291edc147ee31571938b220a6631f680ec7a1f132bd9c7",
		},
		"sparse": {
			"efe34b005a6d8146189108610e33f5d02eb092b8cb15fb0824854658804e7ad5",
			"3afe50e6bb7852e1908383fffe6c2e48286655c174ee962712fc0ffc3ee2ba2f",
			"9e3d1efcf090d5fd0a0135a88d9b4d02265866481a4889a3f62c5ff1209cd8f8",
			"35e362c6ec7840c327733f041d7244cd1db7ed22f5bfc6840a2199f881a0ac43",
		},
	}
	for name, inst := range map[string]*Instance{"dense": dense, "sparse": sparse} {
		t.Run(name, func(t *testing.T) {
			w := want[name]
			next := inst.Snapshot()
			next.SetInterest(7, 2, 0.625)
			edited := DigestV1(next)
			next.SetActivity(11, 3, 0.375)
			active := DigestV1(next)
			if err := next.AddCompeting(Competing{Name: "late", Interval: 1, Start: 10, End: 20}, goldenCompetingCol(next)); err != nil {
				t.Fatal(err)
			}
			got := [4]string{DigestV1(inst), edited, active, DigestV1(next)}
			for i, label := range []string{"base", "interest edit", "activity edit", "AddCompeting"} {
				if got[i] != w[i] {
					t.Errorf("%s digest after %s = %s, want %s", name, label, got[i], w[i])
				}
			}
		})
	}
}

// goldenCompetingCol is the competing interest column the golden tests add.
func goldenCompetingCol(in *Instance) []float32 {
	col := make([]float32, in.NumUsers())
	for u := range col {
		if u%4 == 0 {
			col[u] = 0.5
		}
	}
	return col
}

// TestDigestGoldenV2 pins the v2 Digest of the TestDigestGolden instances
// through the same edits, and checks that each digest matches one computed
// from scratch. The interest and activity edits each write their column a
// second time after a Digest, so a slot cleared only on a column's first
// write would keep a stale hash and fail here.
func TestDigestGoldenV2(t *testing.T) {
	dense, sparse := buildPair(t, 23, 6, 4, 3, 50, 0.4)
	want := map[string][4]string{
		"dense": {
			"e5621c0fe1272fd71814a458aed042c2e8716d43cbd12995086351c939f1177c",
			"4c2260c41218fb4939acdce5bdfe2bfb73ba243eba95c1ee35449f8a0acbfc32",
			"a80a1f4de371df0e49d78edeb1b90d05cedb3adb806bb889a14fa17499d5833e",
			"3fdc14614bf8640b6fe62d3872d039a34f07f4b5aa4548bfac8d620c59b30a05",
		},
		"sparse": {
			"d7d101950581d6694fb8054e725473180b2494fe5f1f83ff62a10ef1160de2f3",
			"8a317c5b86e552c02d18baa85aaf010bc8e63e54120226b531a7b5752110a562",
			"f9ac380ecc812b45d68c130f0713e9d174ff64cec48b5a82d624f06142c75f4c",
			"848c90bf38f680d74c562762339c96c12252428c0d49c1db085ce58f879b4978",
		},
	}
	for name, inst := range map[string]*Instance{"dense": dense, "sparse": sparse} {
		t.Run(name, func(t *testing.T) {
			w := want[name]
			base := inst.Digest()
			next := inst.Snapshot()
			next.SetInterest(7, 2, 0.25)
			next.Digest()
			next.SetInterest(7, 2, 0.625)
			edited := next.Digest()
			checkFresh(t, next, edited)
			next.SetActivity(11, 3, 0.125)
			next.Digest()
			next.SetActivity(11, 3, 0.375)
			active := next.Digest()
			checkFresh(t, next, active)
			if err := next.AddCompeting(Competing{Name: "late", Interval: 1, Start: 10, End: 20}, goldenCompetingCol(next)); err != nil {
				t.Fatal(err)
			}
			got := [4]string{base, edited, active, next.Digest()}
			checkFresh(t, next, got[3])
			if inst.Digest() != base {
				t.Error("edits through the snapshot changed the source's digest")
			}
			for i, label := range []string{"base", "interest edit", "activity edit", "AddCompeting"} {
				if got[i] != w[i] {
					t.Errorf("%s digest after %s = %s, want %s", name, label, got[i], w[i])
				}
			}
		})
	}
}

// deepCopy returns a copy of in that shares no column and no hash slot with
// it: every slot starts empty, so its Digest hashes every column afresh.
func deepCopy(in *Instance) *Instance {
	var interest [][]float32
	var sparse []SparseCol
	if in.sparse != nil {
		sparse = make([]SparseCol, len(in.sparse))
		for h := range sparse {
			sparse[h] = in.sparse[h].clone()
		}
	} else {
		interest = make([][]float32, len(in.interest))
		for h := range interest {
			interest[h] = slices.Clone(in.interest[h])
		}
	}
	activity := make([][]float32, len(in.activity))
	for tt := range activity {
		activity[tt] = slices.Clone(in.activity[tt])
	}
	return newInstance(slices.Clone(in.Events), slices.Clone(in.Intervals), slices.Clone(in.Competing),
		in.numUsers, in.Theta, interest, sparse, activity)
}

// checkFresh fails unless digest (computed through in's cached slots)
// equals the digest of a deep copy of in with every slot empty.
func checkFresh(t *testing.T, in *Instance, digest string) {
	t.Helper()
	if fresh := deepCopy(in).Digest(); digest != fresh {
		t.Fatalf("cached digest %s, recomputed from scratch %s", digest, fresh)
	}
}

// TestDigestConcurrentWithSuccessorWrites runs Digest on a published
// snapshot from several goroutines while a writer mutates and digests a
// chain of successors sharing its columns, as the server store does. Both
// sides fill the shared hash slots at once; under -race this checks the
// slots are synchronized, and every reader must see the published digest.
func TestDigestConcurrentWithSuccessorWrites(t *testing.T) {
	dense, sparse := buildPair(t, 5, 6, 4, 3, 200, 0.3)
	for _, inst := range []*Instance{dense, sparse} {
		pub := inst.Snapshot()
		want := deepCopy(pub).Digest()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 50; r++ {
					if got := pub.Digest(); got != want {
						t.Errorf("published digest %s, want %s", got, want)
						return
					}
				}
			}()
		}
		next := pub.Snapshot()
		for i := 0; i < 60; i++ {
			switch i % 3 {
			case 0:
				next.SetInterest(i%next.NumUsers(), i%next.NumEvents(), float64(i%7)/7)
			case 1:
				next.SetActivity(i%next.NumUsers(), i%next.NumIntervals(), float64(i%5)/5)
			case 2:
				next = next.Snapshot()
			}
			next.Digest()
		}
		wg.Wait()
		checkFresh(t, next, next.Digest())
	}
}
