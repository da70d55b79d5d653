package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestComparisonShapes(t *testing.T) {
	// Small sizes keep the test fast; the paper's qualitative shape must
	// hold: ARCS emits far fewer rules than C4.5, and both achieve low
	// error on clean data.
	// 20k is the paper's smallest database size; below that a 50-bin
	// grid is too sparse to support rules at all.
	rows, err := Comparison([]int{20_000}, 0, 20_000, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.C45Run {
			t.Fatalf("C4.5 skipped at %d tuples", r.N)
		}
		if r.ARCSRules >= r.C45Rules {
			t.Errorf("N=%d: ARCS rules (%d) should be far fewer than C4.5 rules (%d)",
				r.N, r.ARCSRules, r.C45Rules)
		}
		if r.ARCSErrorPct > 20 {
			t.Errorf("N=%d: ARCS error %.1f%% too high", r.N, r.ARCSErrorPct)
		}
		if r.C45ErrorPct > 10 {
			t.Errorf("N=%d: C4.5 error %.1f%% too high", r.N, r.C45ErrorPct)
		}
	}
}

func TestComparisonCap(t *testing.T) {
	rows, err := Comparison([]int{10_000, 30_000}, 0.10, 10_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].C45Run {
		t.Error("C4.5 should run at the cap")
	}
	if rows[1].C45Run {
		t.Error("C4.5 should be skipped above the cap")
	}
	// Render both table styles.
	errTable := RenderComparison(rows, false)
	if !strings.Contains(errTable, "—") {
		t.Error("skipped C4.5 entry should render as —")
	}
	timeTable := RenderComparison(rows, true)
	if !strings.Contains(timeTable, "s") {
		t.Error("time table missing seconds")
	}
}

func TestScaleupLinearity(t *testing.T) {
	rows, err := Scaleup([]int{10_000, 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("missing rows")
	}
	ratio := LinearityCheck(rows)
	// Per-tuple time must not blow up; allow generous slack for
	// fixed overheads at small sizes.
	if ratio > 2.0 {
		t.Errorf("per-tuple time ratio %.2f suggests superlinear scaling", ratio)
	}
}

func TestBinGranularityTrend(t *testing.T) {
	rows, err := BinGranularity(10_000, []int{10, 50}, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("missing rows")
	}
	// The paper's finding: finer binning trends toward more optimal
	// clusters (lower geometric error).
	if rows[1].GeomErrorPct > rows[0].GeomErrorPct+2 {
		t.Errorf("50 bins geometric error %.2f%% much worse than 10 bins %.2f%%",
			rows[1].GeomErrorPct, rows[0].GeomErrorPct)
	}
}

func TestRecoveredRulesHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-tuple run")
	}
	res, err := RecoveredRules()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) < 3 || len(res.Rules) > 5 {
		for _, r := range res.Rules {
			t.Logf("rule: %s", r)
		}
		t.Errorf("recovered %d rules, paper reports 3 (3-5 acceptable for greedy cover)", len(res.Rules))
	}
}

func TestSmoothingDemo(t *testing.T) {
	before, after, err := SmoothingDemo(20_000, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before, "#") || !strings.Contains(after, "#") {
		t.Error("demo grids empty")
	}
	if before == after {
		t.Error("smoothing had no visible effect")
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("FormatDuration = %q", got)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("four full optimizer runs per study")
	}
	studies, err := Ablations(10_000)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"smoothing mode":   {"off", "binary", "support-weighted"},
		"pruning fraction": {"off", "0.5%", "1%", "5%"},
		"threshold search": {"walk", "anneal"},
		"bin strategy":     {"equi-width", "equi-depth", "homogeneity", "supervised"},
	}
	if len(studies) != len(want) {
		t.Fatalf("studies = %d, want %d", len(studies), len(want))
	}
	for _, st := range studies {
		var got []string
		for _, r := range st.Rows {
			got = append(got, r.Variant)
			if r.ErrorPct < 0 || r.ErrorPct > 100 {
				t.Errorf("study %q variant %q error %.2f out of range", st.Name, r.Variant, r.ErrorPct)
			}
		}
		if !reflect.DeepEqual(got, want[st.Name]) {
			t.Errorf("study %q variants %q, want %q", st.Name, got, want[st.Name])
		}
	}
	out := RenderAblations(studies)
	if !strings.Contains(out, "smoothing mode") || !strings.Contains(out, "bin strategy") {
		t.Error("render missing sections")
	}
}

func TestWhyClustering(t *testing.T) {
	res, err := WhyClustering(10_000, 30)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's motivation: clustering condenses the rule count by
	// orders of magnitude.
	if res.ClusteredRules == 0 {
		t.Fatal("no clustered rules")
	}
	if res.CellRules < 10*res.ClusteredRules {
		t.Errorf("cell rules (%d) should dwarf clustered rules (%d)", res.CellRules, res.ClusteredRules)
	}
	if res.QuantRules <= res.ClusteredRules {
		t.Errorf("quantitative rules (%d) should exceed clustered rules (%d)",
			res.QuantRules, res.ClusteredRules)
	}
}
