package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestPersistbenchJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := Persistbench([]string{"-users", "30", "-puts", "3", "-mutates", "4", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var doc struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	// Two modes × two operations, then the four-point MUTATE |U| sweep, in
	// the benchdiff row vocabulary.
	if len(doc.Rows) != 8 {
		t.Fatalf("%d rows, want 8 (memory/wal × PUT/MUTATE + 4 sweep points)", len(doc.Rows))
	}
	seen := map[string]bool{}
	for _, r := range doc.Rows {
		if r["figure"] != "persist" {
			t.Errorf("row figure %v, want persist", r["figure"])
		}
		seen[fmt.Sprintf("%s/%s/%v", r["dataset"], r["algorithm"], r["x"])] = true
		for _, det := range []string{"utility", "score_evals", "examined"} {
			if v, ok := r[det].(float64); !ok || v != 0 {
				t.Errorf("deterministic column %s = %v, want 0 (benchdiff gates it exactly)", det, r[det])
			}
		}
	}
	for _, want := range []string{"memory/PUT/3", "memory/MUTATE/4", "wal/PUT/3", "wal/MUTATE/4",
		"memory-dense/MUTATE/5000", "memory-dense/MUTATE/100000", "memory-sparse/MUTATE/5000", "memory-sparse/MUTATE/100000"} {
		if !seen[want] {
			t.Errorf("missing series %s", want)
		}
	}

	// Table mode renders without error.
	out.Reset()
	if code := Persistbench([]string{"-users", "30", "-puts", "2", "-mutates", "2"}, &out, &errb); code != 0 {
		t.Fatalf("table mode exit %d: %s", code, errb.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("per-op")) {
		t.Errorf("table output missing header: %s", out.String())
	}

	if code := Persistbench([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
