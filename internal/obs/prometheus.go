package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as `arcs_<name>`, gauges likewise,
// histograms as the conventional `_bucket{le="..."}` cumulative series
// plus `_sum` and `_count`. Metric names are sanitized to the
// [a-zA-Z_][a-zA-Z0-9_]* charset and emitted in sorted order so
// successive scrapes diff cleanly.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	if s == nil {
		return nil
	}
	full := func(name string) string { return "arcs_" + sanitizeMetricName(name) }
	for _, name := range sortedKeys(s.Counters) {
		fn := full(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", fn, fn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		fn := full(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", fn, fn, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.FloatGauges) {
		fn := full(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", fn, fn,
			strconv.FormatFloat(s.FloatGauges[name], 'g', -1, 64)); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		fn := full(name)
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fn); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
				fn, strconv.FormatFloat(b.UpperBound, 'g', -1, 64), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			fn, h.Count, fn, strconv.FormatFloat(h.Sum, 'g', -1, 64), fn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sanitizeMetricName maps a name into the Prometheus metric charset,
// replacing every invalid rune with '_'.
func sanitizeMetricName(name string) string {
	out := []byte(name)
	for i := 0; i < len(out); i++ {
		c := out[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			out[i] = '_'
		}
	}
	return string(out)
}
