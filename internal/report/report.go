// Package report renders ARCS results for humans and machines: aligned
// plain text, Markdown tables, and JSON. The CLI's -format flag and the
// experiment harness both use it; keeping rendering out of the core
// packages lets library users define their own.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"arcs/internal/core"
	"arcs/internal/rules"
)

// Format selects an output encoding.
type Format int

const (
	// Text is aligned, human-readable plain text (the default).
	Text Format = iota
	// Markdown emits a GitHub-flavored table.
	Markdown
	// JSON emits a machine-readable document.
	JSON
)

// ParseFormat maps a CLI flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "text":
		return Text, nil
	case "markdown", "md":
		return Markdown, nil
	case "json":
		return JSON, nil
	default:
		return Text, fmt.Errorf("report: unknown format %q (want text, markdown or json)", s)
	}
}

// jsonRule is the serialized form of one clustered rule.
type jsonRule struct {
	XAttr      string  `json:"x_attr"`
	XLo        float64 `json:"x_lo"`
	XHi        float64 `json:"x_hi"`
	YAttr      string  `json:"y_attr"`
	YLo        float64 `json:"y_lo"`
	YHi        float64 `json:"y_hi"`
	CritAttr   string  `json:"criterion_attr"`
	CritValue  string  `json:"criterion_value"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Text       string  `json:"text"`
}

// jsonResult is the serialized form of a Result.
type jsonResult struct {
	CritValue      string     `json:"criterion_value"`
	MinSupport     float64    `json:"min_support"`
	MinConfidence  float64    `json:"min_confidence"`
	MDLCost        float64    `json:"mdl_cost"`
	Evaluations    int        `json:"evaluations"`
	Rules          []jsonRule `json:"rules"`
	FalsePositives int        `json:"false_positives"`
	FalseNegatives int        `json:"false_negatives"`
	SampleSize     int        `json:"sample_size"`
	ErrorRatePct   float64    `json:"error_rate_pct"`
	// Counts identifies the count backend the run read from (dense or
	// sparse) and its memory footprint. Omitted on results predating
	// the backend refactor (empty backend name).
	Counts *core.CountsInfo `json:"counts,omitempty"`
}

func toJSONRule(r rules.ClusteredRule) jsonRule {
	return jsonRule{
		XAttr: r.XAttr, XLo: r.XLo, XHi: r.XHi,
		YAttr: r.YAttr, YLo: r.YLo, YHi: r.YHi,
		CritAttr: r.CritAttr, CritValue: r.CritValue,
		Support: r.Support, Confidence: r.Confidence,
		Text: r.String(),
	}
}

// JSONResult builds the JSON-serializable document WriteResult emits in
// JSON mode, for callers embedding results in larger payloads (the arcsd
// run-status endpoint).
func JSONResult(res *core.Result) any {
	doc := jsonResult{
		CritValue:      res.CritValue,
		MinSupport:     res.MinSupport,
		MinConfidence:  res.MinConfidence,
		MDLCost:        res.Cost,
		Evaluations:    res.Evaluations,
		FalsePositives: res.Errors.FalsePositives,
		FalseNegatives: res.Errors.FalseNegatives,
		SampleSize:     res.Errors.Total,
		ErrorRatePct:   100 * res.Errors.Rate(),
		Rules:          make([]jsonRule, 0, len(res.Rules)),
	}
	for _, r := range res.Rules {
		doc.Rules = append(doc.Rules, toJSONRule(r))
	}
	if res.Counts.Backend != "" {
		c := res.Counts
		doc.Counts = &c
	}
	return doc
}

// WriteResult renders a single segmentation result in the chosen format.
func WriteResult(w io.Writer, res *core.Result, f Format) error {
	switch f {
	case JSON:
		doc := JSONResult(res)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)

	case Markdown:
		fmt.Fprintf(w, "### Segmentation for %s\n\n", res.CritValue)
		fmt.Fprintln(w, "| rule | support | confidence |")
		fmt.Fprintln(w, "|------|--------:|-----------:|")
		for _, r := range res.Rules {
			fmt.Fprintf(w, "| %s | %.4f | %.2f |\n", r, r.Support, r.Confidence)
		}
		fmt.Fprintf(w, "\nThresholds: support ≥ %.5f, confidence ≥ %.3f (MDL cost %.2f, %d probes).\n",
			res.MinSupport, res.MinConfidence, res.Cost, res.Evaluations)
		fmt.Fprintf(w, "Verification: %s.\n", res.Errors)
		return nil

	default: // Text
		if len(res.Rules) == 0 {
			fmt.Fprintln(w, "(no clustered rules)")
			return nil
		}
		for _, r := range res.Rules {
			fmt.Fprintf(w, "%s   [support %.4f, confidence %.2f]\n", r, r.Support, r.Confidence)
		}
		fmt.Fprintf(w, "thresholds: support >= %.5f, confidence >= %.3f  (MDL cost %.2f, %d probes)\n",
			res.MinSupport, res.MinConfidence, res.Cost, res.Evaluations)
		fmt.Fprintf(w, "verification: %s\n", res.Errors)
		return nil
	}
}

// WriteAll renders a full per-value segmentation map, ordered by label.
func WriteAll(w io.Writer, results map[string]*core.Result, labels []string, f Format) error {
	if f == JSON {
		docs := make(map[string]json.RawMessage, len(results))
		for _, label := range labels {
			var sb strings.Builder
			if err := WriteResult(&sb, results[label], JSON); err != nil {
				return err
			}
			docs[label] = json.RawMessage(sb.String())
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(docs)
	}
	for _, label := range labels {
		switch f {
		case Markdown:
			// WriteResult emits its own heading.
		default:
			fmt.Fprintf(w, "== segmentation for %s ==\n", label)
		}
		if err := WriteResult(w, results[label], f); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
