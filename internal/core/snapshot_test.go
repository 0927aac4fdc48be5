package core

import (
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

// TestDigestGolden pins the Digest of a dense and a sparse instance through
// an interest edit, an activity edit and an AddCompeting. WAL records carry
// these digests, so any change to the hashed byte stream — a storage layout
// change included — would make old records fail verification on replay.
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
			edited := next.Digest()
			next.SetActivity(11, 3, 0.375)
			active := next.Digest()
			col := make([]float32, next.NumUsers())
			for u := range col {
				if u%4 == 0 {
					col[u] = 0.5
				}
			}
			if err := next.AddCompeting(Competing{Name: "late", Interval: 1, Start: 10, End: 20}, col); err != nil {
				t.Fatal(err)
			}
			got := [4]string{inst.Digest(), edited, active, next.Digest()}
			for i, label := range []string{"base", "interest edit", "activity edit", "AddCompeting"} {
				if got[i] != w[i] {
					t.Errorf("%s digest after %s = %s, want %s", name, label, got[i], w[i])
				}
			}
		})
	}
}
