package experiments

import (
	"testing"

	"arcs/internal/core"
	"arcs/internal/obs"
)

func phaseRec(crossover int, phases ...core.PhaseTiming) BenchRecord {
	return BenchRecord{GitSHA: "test", Crossover: crossover, Phases: phases}
}

// TestDiffBenchRecordsPhases: phase growth beyond tolerance regresses;
// noise-floor phases, phases missing from either side, and shrinkage do
// not.
func TestDiffBenchRecordsPhases(t *testing.T) {
	oldRec := phaseRec(0,
		core.PhaseTiming{Name: "ingest-dense-1000000", Seconds: 1.0},
		core.PhaseTiming{Name: "ingest-sharded-4-1000000", Seconds: 0.8},
		core.PhaseTiming{Name: "tiny", Seconds: 0.001},
		core.PhaseTiming{Name: "old-only", Seconds: 1.0},
	)
	newRec := phaseRec(0,
		core.PhaseTiming{Name: "ingest-dense-1000000", Seconds: 1.5},     // +50% — regresses
		core.PhaseTiming{Name: "ingest-sharded-4-1000000", Seconds: 0.7}, // faster — fine
		core.PhaseTiming{Name: "tiny", Seconds: 0.004},                   // below noise floor both sides
		core.PhaseTiming{Name: "new-only", Seconds: 5.0},                 // unmatched — skipped
	)
	regs := DiffBenchRecords(oldRec, newRec, obs.DefaultDiffOptions)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the dense phase", regs)
	}
	if regs[0].Kind != "phase" || regs[0].Name != "ingest-dense-1000000" {
		t.Fatalf("regression = %+v", regs[0])
	}
	if regs[0].Growth < 0.49 || regs[0].Growth > 0.51 {
		t.Fatalf("growth = %v, want ~0.5", regs[0].Growth)
	}
}

// TestDiffBenchRecordsCrossoverLost: a run that loses its crossover
// (parallel ingest no longer pays at any measured size) regresses even
// when every phase stays in budget.
func TestDiffBenchRecordsCrossoverLost(t *testing.T) {
	oldRec := phaseRec(2_000_000)
	newRec := phaseRec(0)
	regs := DiffBenchRecords(oldRec, newRec, obs.DefaultDiffOptions)
	if len(regs) != 1 || regs[0].Kind != "xover" {
		t.Fatalf("regressions = %+v, want one xover", regs)
	}
}

// TestDiffBenchRecordsCrossoverMoved: the crossover shifting to a
// larger size beyond tolerance regresses; within tolerance it does not.
func TestDiffBenchRecordsCrossoverMoved(t *testing.T) {
	oldRec := phaseRec(2_000_000)
	if regs := DiffBenchRecords(oldRec, phaseRec(5_000_000), obs.DefaultDiffOptions); len(regs) != 1 || regs[0].Kind != "xover" {
		t.Fatalf("2M→5M regressions = %+v, want one xover", regs)
	}
	if regs := DiffBenchRecords(oldRec, phaseRec(2_000_000), obs.DefaultDiffOptions); len(regs) != 0 {
		t.Fatalf("2M→2M regressions = %+v, want none", regs)
	}
	// A run that gains a crossover the old record lacked never regresses.
	if regs := DiffBenchRecords(phaseRec(0), phaseRec(2_000_000), obs.DefaultDiffOptions); len(regs) != 0 {
		t.Fatalf("0→2M regressions = %+v, want none", regs)
	}
}

func qualityRec(rows ...QualityRow) BenchRecord {
	return BenchRecord{GitSHA: "test", Quality: rows}
}

// TestDiffBenchRecordsQualityError: error-rate growth must clear both
// the relative tolerance and the absolute percentage-point floor.
func TestDiffBenchRecordsQualityError(t *testing.T) {
	oldRec := qualityRec(
		QualityRow{Function: 1, ErrorPct: 8.0},
		QualityRow{Function: 2, ErrorPct: 10.0},
		QualityRow{Function: 3, ErrorPct: 0.2},
		QualityRow{Function: 9, ErrorPct: 60.0},
	)
	newRec := qualityRec(
		QualityRow{Function: 1, ErrorPct: 12.0}, // +50%, +4pts — regresses
		QualityRow{Function: 2, ErrorPct: 10.9}, // +9%, under both floors — fine
		QualityRow{Function: 3, ErrorPct: 0.9},  // +350% but under the 1pt floor — fine
		QualityRow{Function: 9, ErrorPct: 64.0}, // +4pts but only +6.7% — within tolerance
		QualityRow{Function: 5, ErrorPct: 50.0}, // unmatched — skipped
	)
	regs := DiffBenchRecords(oldRec, newRec, obs.DefaultDiffOptions)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly f1", regs)
	}
	if regs[0].Kind != "quality" || regs[0].Name != "f1-error-pct" {
		t.Fatalf("regression = %+v", regs[0])
	}
	if regs[0].Growth < 0.49 || regs[0].Growth > 0.51 {
		t.Fatalf("growth = %v, want ~0.5", regs[0].Growth)
	}
}

// TestDiffBenchRecordsQualityIoU: a recovery-IoU drop beyond the
// absolute floor regresses; smaller drops, gains, and rows without
// recovery on either side do not.
func TestDiffBenchRecordsQualityIoU(t *testing.T) {
	oldRec := qualityRec(
		QualityRow{Function: 1, HasRecovery: true, RecoveryIoU: 0.95},
		QualityRow{Function: 2, HasRecovery: true, RecoveryIoU: 0.90},
		QualityRow{Function: 4, HasRecovery: false},
	)
	newRec := qualityRec(
		QualityRow{Function: 1, HasRecovery: true, RecoveryIoU: 0.80}, // −0.15 — regresses
		QualityRow{Function: 2, HasRecovery: true, RecoveryIoU: 0.88}, // −0.02 — noise
		QualityRow{Function: 4, HasRecovery: true, RecoveryIoU: 0.50}, // old had none — skipped
	)
	regs := DiffBenchRecords(oldRec, newRec, obs.DefaultDiffOptions)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly f1", regs)
	}
	r := regs[0]
	if r.Kind != "quality" || r.Name != "f1-recovery-iou" {
		t.Fatalf("regression = %+v", r)
	}
	// Growth is the fractional drop: (0.95−0.80)/0.95.
	if r.Growth < 0.15 || r.Growth > 0.17 {
		t.Fatalf("growth = %v, want ~0.158", r.Growth)
	}
}

// TestLastRecords: LastRecord/LastTwoRecords pull from the tail and
// error on short histories.
func TestLastRecords(t *testing.T) {
	bf := &BenchFile{}
	if _, err := LastRecord(bf); err == nil {
		t.Fatal("LastRecord on empty history returned nil error")
	}
	if _, _, err := LastTwoRecords(bf); err == nil {
		t.Fatal("LastTwoRecords on empty history returned nil error")
	}
	bf.History = append(bf.History, BenchRecord{GitSHA: "a"}, BenchRecord{GitSHA: "b"})
	last, err := LastRecord(bf)
	if err != nil || last.GitSHA != "b" {
		t.Fatalf("LastRecord = %+v, %v", last, err)
	}
	oldRec, newRec, err := LastTwoRecords(bf)
	if err != nil || oldRec.GitSHA != "a" || newRec.GitSHA != "b" {
		t.Fatalf("LastTwoRecords = %+v, %+v, %v", oldRec, newRec, err)
	}
}
