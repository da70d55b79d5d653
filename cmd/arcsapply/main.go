// Command arcsapply applies a saved segmentation model (produced by
// `arcs -save`) to a CSV file, completing the paper's deployment story:
// segment the existing customer base once, then score prospect lists
// against the saved model.
//
// Usage:
//
//	arcsapply -model segment.json -in prospects.csv [-matched-only] > scored.csv
//	arcsapply -registry ./models [-model-version m000003] -in prospects.csv
//
// -model loads a model file directly; -registry loads from a versioned
// model registry (the same store arcsd serves from), defaulting to the
// active version so the CLI and the daemon score with one validation
// and bind path.
//
// Output is the input CSV with an extra column holding "yes"/"no" for
// segment membership; -matched-only emits only the matching rows,
// without the extra column.
//
// Exit codes: 0 success, 1 fatal error, 2 usage, 3 canceled (SIGINT or
// -timeout) — the rows scored before cancellation are flushed first.
package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"

	"arcs/internal/cli"
	"arcs/internal/dataset"
	"arcs/internal/segment"
	"arcs/internal/segment/registry"
)

func main() {
	c := cli.New(cli.Spec{
		Name:    "arcsapply",
		Timeout: "scoring budget; on expiry flush the rows scored so far and exit 3",
		Input:   true,
	})
	var (
		modelPath   = flag.String("model", "", "segmentation model JSON file")
		registryDir = flag.String("registry", "", "model registry directory (alternative to -model)")
		version     = flag.String("model-version", "", "registry version to load (default: the active one)")
		in          = flag.String("in", "", "input CSV file (required)")
		out         = flag.String("out", "", "output file (default stdout)")
		matchedOnly = flag.Bool("matched-only", false, "emit only matching rows, without the membership column")
		column      = flag.String("column", "in_segment", "name of the membership column")
	)
	c.Parse()
	if (*modelPath == "") == (*registryDir == "") || *in == "" {
		c.Usage(errors.New("need -in plus exactly one of -model or -registry"))
	}
	if *version != "" && *registryDir == "" {
		c.Usage(errors.New("-model-version needs -registry"))
	}

	// The scoring pass stops at its next checkpoint when ctx is canceled;
	// the rows already scored are flushed, and the process exits 3.
	ctx := c.Start(os.Stderr)
	defer c.Exit()

	// Both load paths end in the same read-validation: a file goes
	// through segment.Read directly, a registry version additionally
	// gets its manifest checksum verified before the document is
	// trusted — the exact gate the daemon serves behind.
	var model *segment.Model
	if *registryDir != "" {
		reg, err := registry.Open(*registryDir, registry.Options{})
		if err != nil {
			c.Fatal(err)
		}
		id := *version
		if id == "" {
			if id = reg.ActiveID(); id == "" {
				c.Fatal(fmt.Errorf("registry %s has no active model; activate one or pass -model-version", *registryDir))
			}
		}
		m, man, err := reg.Load(id)
		if err != nil {
			c.Fatal(err)
		}
		model = m
		slog.Debug("loaded model from registry", "version", id,
			"rules", man.Rules, "source_run", man.SourceRun)
	} else {
		mf, err := os.Open(*modelPath)
		if err != nil {
			c.Fatal(err)
		}
		m, err := segment.Read(mf)
		mf.Close()
		if err != nil {
			c.Fatal(err)
		}
		model = m
	}

	// Unparseable rows are quarantined (with row numbers) within the
	// -max-bad-rows budget, so one corrupt prospect row doesn't abort the
	// whole scoring run unless the operator asked for strictness.
	src, err := dataset.OpenCSV(*in, c.MaxBadRows(), nil, "")
	if err != nil {
		c.Fatal(err)
	}
	defer src.Close()
	schema := src.Schema()

	applier, err := model.Bind(schema)
	if err != nil {
		c.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			c.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := csv.NewWriter(bw)

	header := schema.Names()
	if !*matchedOnly {
		header = append(header, *column)
	}
	if err := cw.Write(header); err != nil {
		c.Fatal(err)
	}

	rec := make([]string, schema.Len(), schema.Len()+1)
	matched, total := 0, 0
	applyErr := applier.ApplyContext(ctx, src, func(t dataset.Tuple, covered bool) error {
		total++
		if covered {
			matched++
		}
		if *matchedOnly && !covered {
			return nil
		}
		for i, v := range t {
			a := schema.At(i)
			if a.Kind == dataset.Categorical {
				rec[i] = a.Category(int(v))
			} else {
				rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		row := rec
		if !*matchedOnly {
			member := "no"
			if covered {
				member = "yes"
			}
			row = append(rec, member)
		}
		return cw.Write(row)
	})
	// Flush before classifying the error so a canceled pass still delivers
	// every row scored up to the checkpoint.
	cw.Flush()
	if err := cw.Error(); err != nil {
		c.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		c.Fatal(err)
	}
	src.LogDegradation()
	if applyErr != nil {
		if cli.Canceled(applyErr) {
			slog.Warn("scoring canceled; partial output flushed",
				"rows_scored", total, "matched", matched, "cause", applyErr)
			c.MarkCanceled()
			return
		}
		c.Fatal(applyErr)
	}
	slog.Info("scored rows against segment",
		"matched", matched, "total", total,
		"crit_attr", model.CritAttr, "crit_value", model.CritValue)
}
