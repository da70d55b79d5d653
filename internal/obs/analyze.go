package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the consumer side of the JSONL trace format: parsing a
// trace back into events, aggregating its spans into a per-phase tree
// with self/total times, and diffing two traces for the CI perf gate.
// It lives in obs so the wire format (jsonlEvent) has exactly one
// definition; cmd/arcstrace is a thin front-end over these functions.

// Trace is a parsed JSONL span trace.
type Trace struct {
	// Events holds every record in file order.
	Events []Event
	// Metrics is the flattened registry snapshot from the last
	// EventMetrics record, keyed by the attribute name (e.g.
	// "counter.probe_cache_misses_total"). Empty when the trace carries
	// no metrics event.
	Metrics map[string]float64
}

// ReadTrace parses a JSONL trace stream. Blank lines are skipped; a
// malformed line fails with its line number.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{Metrics: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec jsonlEvent
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		ev := Event{
			Type:     rec.Type,
			Name:     rec.Name,
			ID:       rec.ID,
			Parent:   rec.Parent,
			Start:    time.UnixMicro(rec.StartUS),
			Duration: time.Duration(rec.DurUS) * time.Microsecond,
		}
		if len(rec.Attrs) > 0 {
			keys := make([]string, 0, len(rec.Attrs))
			for k := range rec.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ev.Attrs = append(ev.Attrs, Attr{Key: k, Value: rec.Attrs[k]})
			}
		}
		// Multi-run streams (flight-recorder dumps) attribute events to
		// runs at the wire level; surface that as an attribute so the
		// analyzers and arcstrace can see it without a schema change.
		if rec.Run != "" && ev.Attr("run") == "" {
			ev.Attrs = append(ev.Attrs, Attr{Key: "run", Value: rec.Run})
		}
		if ev.Type == EventMetrics {
			for _, a := range ev.Attrs {
				if v, err := strconv.ParseFloat(a.Value, 64); err == nil {
					t.Metrics[a.Key] = v
				}
			}
		}
		t.Events = append(t.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return t, nil
}

// PhaseNode aggregates every span with the same name-path (root span
// name down to this span's name) in a trace.
type PhaseNode struct {
	// Name is the span name.
	Name string
	// Count is the number of spans aggregated into this node.
	Count int
	// Total is the summed duration of those spans.
	Total time.Duration
	// Self is Total minus the Total of the node's children — the time
	// spent in this phase itself rather than in instrumented sub-phases.
	Self time.Duration
	// Events counts instant annotations attached to these spans.
	Events int
	// Children are the sub-phases, ordered by descending Total.
	Children []*PhaseNode
}

// PhaseTree aggregates the trace's spans into per-phase nodes keyed by
// their name path: all "probe" spans under "search/probe-batch"
// collapse into one node with Count = number of probes. Roots are
// returned in first-appearance order.
func (t *Trace) PhaseTree() []*PhaseNode {
	type spanInfo struct {
		name   string
		parent uint64
	}
	spans := map[uint64]spanInfo{}
	for _, ev := range t.Events {
		if ev.Type == EventSpan {
			spans[ev.ID] = spanInfo{name: ev.Name, parent: ev.Parent}
		}
	}
	// path resolves a span's name path; unknown parents (span never
	// finished, or trace truncated) root the path at the span itself.
	var path func(id uint64) string
	pathMemo := map[uint64]string{}
	path = func(id uint64) string {
		if p, ok := pathMemo[id]; ok {
			return p
		}
		info := spans[id]
		p := info.name
		if _, ok := spans[info.parent]; ok && info.parent != 0 {
			p = path(info.parent) + "/" + info.name
		}
		pathMemo[id] = p
		return p
	}
	nodes := map[string]*PhaseNode{}
	var order []string
	node := func(p, name string) *PhaseNode {
		n, ok := nodes[p]
		if !ok {
			n = &PhaseNode{Name: name}
			nodes[p] = n
			order = append(order, p)
		}
		return n
	}
	for _, ev := range t.Events {
		switch ev.Type {
		case EventSpan:
			p := path(ev.ID)
			n := node(p, ev.Name)
			n.Count++
			n.Total += ev.Duration
		case EventInstant:
			if parent, ok := spans[ev.Parent]; ok {
				node(path(ev.Parent), parent.name).Events++
			}
		}
	}
	// Wire up parent/child links and self times.
	var roots []*PhaseNode
	for _, p := range order {
		n := nodes[p]
		if i := strings.LastIndex(p, "/"); i >= 0 {
			parent := nodes[p[:i]]
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, p := range order {
		n := nodes[p]
		n.Self = n.Total
		for _, c := range n.Children {
			n.Self -= c.Total
		}
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].Total > n.Children[j].Total
		})
	}
	return roots
}

// WritePhaseTree renders the phase tree as an aligned text table:
// indented phase names with call counts, total and self durations, and
// the share of the root's total.
func WritePhaseTree(w io.Writer, roots []*PhaseNode) error {
	if _, err := fmt.Fprintf(w, "%-40s %8s %12s %12s %7s\n",
		"phase", "count", "total", "self", "%root"); err != nil {
		return err
	}
	for _, root := range roots {
		rootTotal := root.Total
		var walk func(n *PhaseNode, depth int) error
		walk = func(n *PhaseNode, depth int) error {
			label := strings.Repeat("  ", depth) + n.Name
			if n.Events > 0 {
				label += fmt.Sprintf(" (+%d events)", n.Events)
			}
			pct := 0.0
			if rootTotal > 0 {
				pct = 100 * float64(n.Total) / float64(rootTotal)
			}
			if _, err := fmt.Fprintf(w, "%-40s %8d %12s %12s %6.1f%%\n",
				label, n.Count, formatDur(n.Total), formatDur(n.Self), pct); err != nil {
				return err
			}
			for _, c := range n.Children {
				if err := walk(c, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(root, 0); err != nil {
			return err
		}
	}
	return nil
}

func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// DiffOptions configures a trace comparison. Every field is used as
// given, so a zero tolerance or floor gates on any growth; start from
// DefaultDiffOptions to change one knob.
type DiffOptions struct {
	// Tolerance is the fractional growth allowed before a phase time or
	// counter counts as regressed (0.2 = 20%).
	Tolerance float64
	// MinPhase is the noise floor for phase-time comparisons: phases
	// whose total stayed under it in both traces are skipped.
	MinPhase time.Duration
	// MinCount is the noise floor for counter comparisons: counters
	// under it in both traces are skipped.
	MinCount float64
}

// DefaultDiffOptions is the perf gate's default comparison: 20% growth
// allowed, phases under 5ms and counters under 16 skipped as noise.
var DefaultDiffOptions = DiffOptions{Tolerance: 0.2, MinPhase: 5 * time.Millisecond, MinCount: 16}

// Regression is one metric that grew beyond the tolerance between two
// traces.
type Regression struct {
	// Kind is "phase" (aggregate span time) or "counter" (a metrics
	// snapshot value).
	Kind string
	// Name is the phase name path or counter name.
	Name string
	// Old and New are the compared values: seconds for phases, raw
	// values for counters.
	Old, New float64
	// Growth is New/Old - 1 (e.g. 0.35 = 35% worse).
	Growth float64
}

func (r Regression) String() string {
	switch r.Kind {
	case "phase":
		return fmt.Sprintf("phase %-40s %10.4fs -> %10.4fs  (+%.0f%%)", r.Name, r.Old, r.New, 100*r.Growth)
	case "quality":
		// Quality values are small floats (error percent, IoU) where
		// the counter rendering's %.0f would round away the signal.
		return fmt.Sprintf("%-5s %-40s %12.4f -> %12.4f  (+%.0f%%)", r.Kind, r.Name, r.Old, r.New, 100*r.Growth)
	}
	return fmt.Sprintf("%-5s %-40s %12.0f -> %12.0f  (+%.0f%%)", r.Kind, r.Name, r.Old, r.New, 100*r.Growth)
}

// DiffTraces compares aggregate per-phase times and metric counters of
// two traces, returning every regression beyond the tolerance, sorted
// by descending growth. Phases or counters present in only one trace
// are ignored: the gate compares like with like, and structural changes
// surface through review, not the perf smoke.
func DiffTraces(oldT, newT *Trace, opts DiffOptions) []Regression {
	var out []Regression

	oldPhases := flattenPhases(oldT.PhaseTree())
	newPhases := flattenPhases(newT.PhaseTree())
	for p, nn := range newPhases {
		on, ok := oldPhases[p]
		if !ok {
			continue
		}
		if on.Total < opts.MinPhase && nn.Total < opts.MinPhase {
			continue
		}
		if on.Total <= 0 {
			continue
		}
		growth := float64(nn.Total)/float64(on.Total) - 1
		if growth > opts.Tolerance {
			out = append(out, Regression{
				Kind: "phase", Name: p,
				Old: on.Total.Seconds(), New: nn.Total.Seconds(),
				Growth: growth,
			})
		}
	}

	for name, nv := range newT.Metrics {
		if !strings.HasPrefix(name, "counter.") {
			continue
		}
		ov, ok := oldT.Metrics[name]
		if !ok || ov <= 0 {
			continue
		}
		if ov < opts.MinCount && nv < opts.MinCount {
			continue
		}
		growth := nv/ov - 1
		if growth > opts.Tolerance {
			out = append(out, Regression{
				Kind: "counter", Name: strings.TrimPrefix(name, "counter."),
				Old: ov, New: nv, Growth: growth,
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Growth != out[j].Growth {
			return out[i].Growth > out[j].Growth
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func flattenPhases(roots []*PhaseNode) map[string]*PhaseNode {
	out := map[string]*PhaseNode{}
	var walk func(prefix string, n *PhaseNode)
	walk = func(prefix string, n *PhaseNode) {
		p := n.Name
		if prefix != "" {
			p = prefix + "/" + n.Name
		}
		out[p] = n
		for _, c := range n.Children {
			walk(p, c)
		}
	}
	for _, r := range roots {
		walk("", r)
	}
	return out
}
