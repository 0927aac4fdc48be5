package cli

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seio"
)

func TestSesbenchFigure(t *testing.T) {
	var out, errb bytes.Buffer
	code := Sesbench([]string{"-fig", "9", "-scale", "tiny", "-plot=false"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, frag := range []string{"Figure 9", "locations", "ALG", "RAND"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestSesbenchCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rows.csv")
	var out, errb bytes.Buffer
	code := Sesbench([]string{"-fig", "10b", "-scale", "tiny", "-plot=false", "-csv", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 10 {
		t.Errorf("csv has %d records, want ≥ 10", len(recs))
	}
}

func TestSesbenchSummaryAndStacking(t *testing.T) {
	var out, errb bytes.Buffer
	code := Sesbench([]string{"-fig", "summary", "-scale", "tiny", "-trials", "2", "-datasets", "Unf"}, &out, &errb)
	if code != 0 {
		t.Fatalf("summary exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "HOR vs ALG utility") {
		t.Errorf("summary output malformed:\n%s", out.String())
	}
	out.Reset()
	code = Sesbench([]string{"-fig", "stacking", "-scale", "tiny", "-trials", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("stacking exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "competing-interest scale") {
		t.Errorf("stacking output malformed:\n%s", out.String())
	}
}

func TestSesbenchErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Sesbench([]string{"-fig", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown figure accepted")
	}
	if code := Sesbench([]string{"-fig", "9", "-scale", "galactic"}, &out, &errb); code == 0 {
		t.Error("unknown scale accepted")
	}
	if code := Sesbench(nil, &out, &errb); code != 2 {
		t.Error("missing -fig should exit 2")
	}
	if code := Sesbench([]string{"-bogusflag"}, &out, &errb); code != 2 {
		t.Error("bad flag should exit 2")
	}
	if code := Sesbench([]string{"-fig", "9", "-scale", "tiny", "-metric", "bogus"}, &out, &errb); code == 0 {
		t.Error("bogus metric accepted")
	}
}

func TestSesgenSesrunPipeline(t *testing.T) {
	dir := t.TempDir()
	instPath := filepath.Join(dir, "inst.json")
	var out, errb bytes.Buffer
	code := Sesgen([]string{"-dataset", "Zip", "-k", "6", "-users", "80", "-seed", "3", "-o", instPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("sesgen exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "|E|=18") {
		t.Errorf("sesgen banner missing dims: %s", errb.String())
	}

	schedPath := filepath.Join(dir, "sched.json")
	out.Reset()
	errb.Reset()
	code = Sesrun(strings.NewReader(""), []string{
		"-in", instPath, "-k", "6", "-algo", "INC", "-simulate", "500", "-o", schedPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("sesrun exit %d: %s", code, errb.String())
	}
	for _, frag := range []string{"INC scheduled 6/6", "utility Ω", "simulation (500 trials)"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("sesrun output missing %q:\n%s", frag, out.String())
		}
	}
	if _, err := os.Stat(schedPath); err != nil {
		t.Errorf("schedule not written: %v", err)
	}
}

func TestSesrunStdin(t *testing.T) {
	// Generate to stdout, feed to sesrun via stdin.
	var gen, errb bytes.Buffer
	if code := Sesgen([]string{"-dataset", "Unf", "-k", "4", "-users", "40"}, &gen, &errb); code != 0 {
		t.Fatalf("sesgen: %s", errb.String())
	}
	var out bytes.Buffer
	errb.Reset()
	code := Sesrun(&gen, []string{"-k", "4", "-algo", "HOR", "-q"}, &out, &errb)
	if code != 0 {
		t.Fatalf("sesrun exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "HOR scheduled 4/4") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestSesrunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Sesrun(strings.NewReader("not json"), []string{"-k", "3"}, &out, &errb); code == 0 {
		t.Error("garbage instance accepted")
	}
	if code := Sesrun(strings.NewReader(""), []string{"-in", "/nonexistent/file.json"}, &out, &errb); code == 0 {
		t.Error("missing file accepted")
	}
	if code := Sesrun(strings.NewReader(""), []string{"-bogus"}, &out, &errb); code != 2 {
		t.Error("bad flag should exit 2")
	}
	// Unknown algorithm.
	var gen bytes.Buffer
	Sesgen([]string{"-dataset", "Unf", "-k", "4", "-users", "40"}, &gen, &errb)
	if code := Sesrun(&gen, []string{"-algo", "MAGIC", "-k", "2"}, &out, &errb); code == 0 {
		t.Error("unknown algorithm accepted")
	}
}

func TestSesgenErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Sesgen([]string{"-dataset", "wat"}, &out, &errb); code == 0 {
		t.Error("unknown dataset accepted")
	}
	if code := Sesgen([]string{"-o", "/nonexistent-dir/x.json"}, &out, &errb); code == 0 {
		t.Error("unwritable output accepted")
	}
	if code := Sesgen([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Error("bad flag should exit 2")
	}
}

func TestSesgenStats(t *testing.T) {
	var out, errb bytes.Buffer
	code := Sesgen([]string{"-dataset", "Meetup", "-k", "4", "-users", "60", "-stats"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "zeros") {
		t.Errorf("stats banner missing: %s", errb.String())
	}
}

// TestSesrunScheduleFileMatchesWriteSchedule: sesrun writes -o from its
// solve's engine, and the file is byte-identical to the one
// seio.WriteSchedule (a cold scorer) writes for the same schedule — on dense
// and sparse instances, sequential and parallel.
func TestSesrunScheduleFileMatchesWriteSchedule(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		rep      string
		parallel string
	}{{"dense", "0"}, {"sparse", "2"}} {
		instPath := filepath.Join(dir, tc.rep+".json")
		var out, errb bytes.Buffer
		if code := Sesgen([]string{"-dataset", "Unf", "-k", "5", "-users", "120", "-seed", "4", "-rep", tc.rep, "-o", instPath}, &out, &errb); code != 0 {
			t.Fatalf("sesgen exit %d: %s", code, errb.String())
		}
		schedPath := filepath.Join(dir, tc.rep+"-sched.json")
		if code := Sesrun(strings.NewReader(""), []string{
			"-in", instPath, "-k", "5", "-algo", "HOR-I", "-parallel", tc.parallel, "-o", schedPath,
		}, &out, &errb); code != 0 {
			t.Fatalf("sesrun exit %d: %s", code, errb.String())
		}
		f, err := os.Open(instPath)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := seio.ReadInstance(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(schedPath)
		if err != nil {
			t.Fatal(err)
		}
		s, err := seio.ReadSchedule(bytes.NewReader(got), inst)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := seio.WriteSchedule(&want, inst, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: sesrun -o wrote\n%s\nWriteSchedule writes\n%s", tc.rep, got, want.Bytes())
		}
	}
}
