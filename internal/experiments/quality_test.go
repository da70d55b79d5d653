package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"arcs/internal/synth"
)

// TestQualitySweep: the all-functions sweep produces one row per
// function with sane measurements, recovery only where the ground truth
// is rectangular, and a bench record the diff gate can consume.
func TestQualitySweep(t *testing.T) {
	report, err := Quality(3_000, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 10 || len(report.Reports) != 10 {
		t.Fatalf("got %d rows / %d reports, want 10 each", len(report.Rows), len(report.Reports))
	}
	for i, row := range report.Rows {
		fn := i + 1
		if row.Function != fn {
			t.Errorf("row %d function = %d", i, row.Function)
		}
		if row.ErrorPct < 0 || row.ErrorPct > 100 {
			t.Errorf("f%d error = %g out of range", fn, row.ErrorPct)
		}
		tr, err := synth.GroundTruth(fn)
		if err != nil {
			t.Fatal(err)
		}
		if row.HasRecovery != tr.HasRegions() {
			t.Errorf("f%d HasRecovery = %v, truth HasRegions = %v", fn, row.HasRecovery, tr.HasRegions())
		}
		if row.HasRecovery && (row.RecoveryIoU < 0 || row.RecoveryIoU > 1) {
			t.Errorf("f%d IoU = %g out of range", fn, row.RecoveryIoU)
		}
		if row.XAttr != tr.XAttr || row.YAttr != tr.YAttr {
			t.Errorf("f%d pair = %s×%s, want %s×%s", fn, row.XAttr, row.YAttr, tr.XAttr, tr.YAttr)
		}
	}

	rendered := RenderQuality(report)
	for _, want := range []string{"err%", "IoU", "age×salary", "salary×elevel"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered table missing %q:\n%s", want, rendered)
		}
	}

	rec := QualityBenchRecord(report, "abc1234", time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	if rec.GitSHA != "abc1234" || rec.Tuples != 3_000 {
		t.Fatalf("record header = %+v", rec)
	}
	if len(rec.Quality) != 10 || len(rec.Phases) != 40 {
		t.Fatalf("record has %d quality rows / %d phases, want 10 and 40", len(rec.Quality), len(rec.Phases))
	}
	// Each function books its total, then its generate, mine and
	// evaluate stages, which sum to no more than the total.
	for i, row := range rec.Quality {
		fn := fmt.Sprintf("quality-f%d", row.Function)
		ph := rec.Phases[4*i : 4*i+4]
		stages := 0.0
		for k, suffix := range []string{"", "-generate", "-mine", "-evaluate"} {
			if ph[k].Name != fn+suffix {
				t.Fatalf("phase %d = %q, want %q", 4*i+k, ph[k].Name, fn+suffix)
			}
			if k > 0 {
				stages += ph[k].Seconds
			}
		}
		if ph[0].Seconds != row.Seconds || stages > row.Seconds {
			t.Errorf("%s: total %g, row %g, stages sum %g", fn, ph[0].Seconds, row.Seconds, stages)
		}
	}
}

// TestTruthOptions: the converter carries the pair, criterion, domain
// and regions across, and leaves Truth empty for region-less functions.
func TestTruthOptions(t *testing.T) {
	tr, err := synth.GroundTruth(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := TruthOptions(tr)
	if opts.XAttr != synth.AttrAge || opts.YAttr != synth.AttrSalary {
		t.Fatalf("pair = %s×%s", opts.XAttr, opts.YAttr)
	}
	if opts.CritAttr != synth.AttrGroup || opts.CritValue != synth.GroupA {
		t.Fatalf("criterion = %s=%s", opts.CritAttr, opts.CritValue)
	}
	if len(opts.Truth) != 3 {
		t.Fatalf("got %d truth rects, want 3", len(opts.Truth))
	}
	if opts.XLo != synth.AgeMin || opts.XHi != synth.AgeMax ||
		opts.YLo != synth.SalaryMin || opts.YHi != synth.SalaryMax {
		t.Fatalf("domain = [%g,%g]×[%g,%g]", opts.XLo, opts.XHi, opts.YLo, opts.YHi)
	}

	tr7, err := synth.GroundTruth(7)
	if err != nil {
		t.Fatal(err)
	}
	if opts7 := TruthOptions(tr7); len(opts7.Truth) != 0 {
		t.Fatalf("function 7 should have no truth rects, got %d", len(opts7.Truth))
	}
}
