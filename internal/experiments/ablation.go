package experiments

import (
	"fmt"
	"strings"
	"time"

	"arcs/internal/core"
	"arcs/internal/optimizer"
	"arcs/internal/synth"
)

// AblationRow is one configuration's outcome in an ablation study.
type AblationRow struct {
	Variant  string
	Rules    int
	ErrorPct float64
	Cost     float64
	Elapsed  time.Duration
}

// ablationRun executes one full ARCS run with the given config over a
// standard noisy Function 2 workload and measures it.
func ablationRun(n int, cfg core.Config) (AblationRow, error) {
	gen, err := synthSource(dataConfig(n, 0.10, DefaultSeed))
	if err != nil {
		return AblationRow{}, err
	}
	if cfg.XAttr == "" {
		cfg.XAttr, cfg.YAttr = synth.AttrAge, synth.AttrSalary
		cfg.CritAttr, cfg.CritValue = synth.AttrGroup, synth.GroupA
	}
	if cfg.NumBins == 0 {
		cfg.NumBins = 50
	}
	if cfg.Walk == (optimizer.ThresholdWalk{}) {
		cfg.Walk = optimizer.ThresholdWalk{MaxSupportLevels: 12, MaxConfLevels: 8, MaxEvals: 100}
	}
	cfg.Seed = DefaultSeed
	start := time.Now()
	sys, err := core.New(gen, cfg)
	if err != nil {
		return AblationRow{}, err
	}
	res, err := sys.Run()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Rules:    len(res.Rules),
		ErrorPct: 100 * res.Errors.Rate(),
		Cost:     res.Cost,
		Elapsed:  time.Since(start),
	}, nil
}

// AblationStudy is a named set of configuration variants.
type AblationStudy struct {
	Name string
	Rows []AblationRow
}

// Ablations runs the design-choice studies DESIGN.md calls out: smoothing
// modes, pruning thresholds, search strategies and binning strategies,
// all on the same noisy workload.
func Ablations(n int) ([]AblationStudy, error) {
	var studies []AblationStudy

	smooth := AblationStudy{Name: "smoothing mode"}
	for _, mode := range []core.SmoothingMode{core.SmoothOff, core.SmoothBinary, core.SmoothWeighted} {
		row, err := ablationRun(n, core.Config{Smoothing: mode})
		if err != nil {
			return nil, fmt.Errorf("smoothing %v: %w", mode, err)
		}
		row.Variant = mode.String()
		smooth.Rows = append(smooth.Rows, row)
	}
	studies = append(studies, smooth)

	prune := AblationStudy{Name: "pruning fraction"}
	for _, frac := range []float64{-1, 0.005, 0.01, 0.05} {
		row, err := ablationRun(n, core.Config{PruneFraction: frac})
		if err != nil {
			return nil, fmt.Errorf("pruning %v: %w", frac, err)
		}
		if frac < 0 {
			row.Variant = "off"
		} else {
			row.Variant = fmt.Sprintf("%g%%", 100*frac)
		}
		prune.Rows = append(prune.Rows, row)
	}
	studies = append(studies, prune)

	search := AblationStudy{Name: "threshold search"}
	searchCfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"walk", core.Config{Search: core.SearchWalk}},
		{"anneal", core.Config{Search: core.SearchAnneal, Anneal: optimizer.Anneal{Seed: 1, Iterations: 100}}},
	}
	for _, sc := range searchCfgs {
		row, err := ablationRun(n, sc.cfg)
		if err != nil {
			return nil, fmt.Errorf("search %s: %w", sc.name, err)
		}
		row.Variant = sc.name
		search.Rows = append(search.Rows, row)
	}
	studies = append(studies, search)

	binning := AblationStudy{Name: "bin strategy"}
	for _, strat := range []core.BinStrategy{core.BinEquiWidth, core.BinEquiDepth, core.BinHomogeneity, core.BinSupervised} {
		row, err := ablationRun(n, core.Config{BinStrategy: strat})
		if err != nil {
			return nil, fmt.Errorf("binning %v: %w", strat, err)
		}
		row.Variant = strat.String()
		binning.Rows = append(binning.Rows, row)
	}
	studies = append(studies, binning)

	return studies, nil
}

// RenderAblations formats the studies as aligned text.
func RenderAblations(studies []AblationStudy) string {
	var b strings.Builder
	for _, st := range studies {
		fmt.Fprintf(&b, "-- %s --\n", st.Name)
		fmt.Fprintf(&b, "%-18s %8s %10s %10s %10s\n", "variant", "rules", "err%", "mdl cost", "time")
		for _, r := range st.Rows {
			fmt.Fprintf(&b, "%-18s %8d %10.2f %10.2f %10s\n",
				r.Variant, r.Rules, r.ErrorPct, r.Cost, FormatDuration(r.Elapsed))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
