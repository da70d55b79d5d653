package experiments

import (
	"fmt"

	"arcs/internal/obs"
)

// Quality-trajectory noise floors. Mining quality jitters run to run
// (the threshold walk is a search, not a closed form), so a quality
// regression must clear an absolute floor as well as the relative
// tolerance before the gate fires.
const (
	// QualityErrFloorPts is the minimum absolute error-rate growth, in
	// percentage points, for an error regression.
	QualityErrFloorPts = 1.0
	// QualityIoUFloor is the minimum absolute recovery-IoU drop for a
	// recovery regression.
	QualityIoUFloor = 0.05
)

// DiffBenchRecords compares two BENCH_*.json history records — phase
// timings matched by name under the same tolerance/noise-floor rules as
// the span-trace diff, plus the ingest crossover summary and the
// quality rows — returning every regression found. Phases present in
// only one record are ignored (the gate compares like with like); the
// crossover regresses when the old record had one and the new record
// lost it, or when it moved to a larger size by more than the tolerance
// (parallel ingest needing more tuples before it pays is a scaling
// regression even if each phase individually stayed in budget).
//
// Quality rows are matched by function number. A function regresses
// when its held-out error rate grows beyond both the tolerance and
// QualityErrFloorPts percentage points, or when its rectangle-recovery
// IoU drops by more than QualityIoUFloor. For an IoU regression the
// reported Growth is the fractional drop (old−new)/old, so positive
// growth always means worse, matching the other kinds.
func DiffBenchRecords(oldRec, newRec BenchRecord, opts obs.DiffOptions) []obs.Regression {
	tol, minPhase := opts.Tolerance, opts.MinPhase.Seconds()
	var out []obs.Regression

	oldPhases := make(map[string]float64, len(oldRec.Phases))
	for _, p := range oldRec.Phases {
		oldPhases[p.Name] = p.Seconds
	}
	for _, p := range newRec.Phases {
		old, ok := oldPhases[p.Name]
		if !ok {
			continue
		}
		if old < minPhase && p.Seconds < minPhase {
			continue
		}
		if old <= 0 {
			continue
		}
		if growth := p.Seconds/old - 1; growth > tol {
			out = append(out, obs.Regression{
				Kind: "phase", Name: p.Name, Old: old, New: p.Seconds, Growth: growth,
			})
		}
	}

	if oldRec.Crossover > 0 {
		switch {
		case newRec.Crossover == 0:
			out = append(out, obs.Regression{
				Kind: "xover", Name: "ingest-crossover",
				Old: float64(oldRec.Crossover), New: 0, Growth: 1,
			})
		case float64(newRec.Crossover) > float64(oldRec.Crossover)*(1+tol):
			out = append(out, obs.Regression{
				Kind: "xover", Name: "ingest-crossover",
				Old: float64(oldRec.Crossover), New: float64(newRec.Crossover),
				Growth: float64(newRec.Crossover)/float64(oldRec.Crossover) - 1,
			})
		}
	}

	oldQ := make(map[int]QualityRow, len(oldRec.Quality))
	for _, q := range oldRec.Quality {
		oldQ[q.Function] = q
	}
	for _, q := range newRec.Quality {
		old, ok := oldQ[q.Function]
		if !ok {
			continue
		}
		if q.ErrorPct-old.ErrorPct > QualityErrFloorPts && q.ErrorPct > old.ErrorPct*(1+tol) {
			growth := 1.0
			if old.ErrorPct > 0 {
				growth = q.ErrorPct/old.ErrorPct - 1
			}
			out = append(out, obs.Regression{
				Kind: "quality", Name: fmt.Sprintf("f%d-error-pct", q.Function),
				Old: old.ErrorPct, New: q.ErrorPct, Growth: growth,
			})
		}
		if old.HasRecovery && q.HasRecovery && old.RecoveryIoU-q.RecoveryIoU > QualityIoUFloor {
			out = append(out, obs.Regression{
				Kind: "quality", Name: fmt.Sprintf("f%d-recovery-iou", q.Function),
				Old: old.RecoveryIoU, New: q.RecoveryIoU,
				Growth: (old.RecoveryIoU - q.RecoveryIoU) / old.RecoveryIoU,
			})
		}
	}
	return out
}

// LastRecord returns the newest history record of a trajectory file.
func LastRecord(bf *BenchFile) (BenchRecord, error) {
	if len(bf.History) == 0 {
		return BenchRecord{}, fmt.Errorf("experiments: trajectory has no history records")
	}
	return bf.History[len(bf.History)-1], nil
}

// LastTwoRecords returns the two newest history records of a
// trajectory file, oldest first.
func LastTwoRecords(bf *BenchFile) (oldRec, newRec BenchRecord, err error) {
	if len(bf.History) < 2 {
		return BenchRecord{}, BenchRecord{}, fmt.Errorf("experiments: trajectory has %d history records, need 2", len(bf.History))
	}
	return bf.History[len(bf.History)-2], bf.History[len(bf.History)-1], nil
}
