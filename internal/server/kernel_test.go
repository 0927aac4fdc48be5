package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/seio"
)

// TestServerKernelSelection: each uploaded instance's representation picks
// the kernel its engines run, the per-kernel eval counter moves under that
// label only, and the two kernels keep solve results bit-identical.
func TestServerKernelSelection(t *testing.T) {
	s, err := New(Config{Workers: 2, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()
	sparseDoc, denseDoc := sparseUpload(t, 200, 5)
	do(t, c, "PUT", ts.URL+"/instances/dn", denseDoc, http.StatusCreated, nil)
	do(t, c, "PUT", ts.URL+"/instances/sp", sparseDoc, http.StatusCreated, nil)

	// evals reads one label's counter; a label no engine has used yet has
	// no sample and counts as zero.
	evals := func(doc, kernel string) float64 {
		name := `sesd_score_kernel_evals_total{kernel="` + kernel + `"}`
		if !strings.Contains(doc, name) {
			return 0
		}
		return sampleValue(t, doc, name)
	}
	solve := func(name string) seio.SolveResponse {
		t.Helper()
		var solved seio.SolveResponse
		do(t, c, "POST", ts.URL+"/instances/"+name+"/solve",
			jsonBody(t, seio.SolveRequest{Algorithm: "ALG", K: 3}), http.StatusOK, &solved)
		return solved
	}

	dense := solve("dn")
	doc := scrape(t, c, ts.URL)
	scalarEvals := evals(doc, "scalar")
	if scalarEvals < 1 {
		t.Fatalf("dense solve: scalar evals = %v, want >= 1", scalarEvals)
	}
	if got := evals(doc, "sparse"); got != 0 {
		t.Fatalf("dense solve moved the sparse label (%v)", got)
	}

	sparse := solve("sp")
	doc = scrape(t, c, ts.URL)
	if got := evals(doc, "sparse"); got < 1 {
		t.Fatalf("sparse solve: sparse evals = %v, want >= 1", got)
	}
	if got := evals(doc, "scalar"); got != scalarEvals {
		t.Fatalf("sparse solve moved the scalar label (%v -> %v)", scalarEvals, got)
	}

	if sparse.Schedule.Utility != dense.Schedule.Utility {
		t.Errorf("Ω %x (sparse) differs from %x (dense)", sparse.Schedule.Utility, dense.Schedule.Utility)
	}
	if sparse.ScoreEvals != dense.ScoreEvals || sparse.Examined != dense.Examined {
		t.Errorf("counters (%d,%d) (sparse) differ from (%d,%d) (dense)",
			sparse.ScoreEvals, sparse.Examined, dense.ScoreEvals, dense.Examined)
	}
}
