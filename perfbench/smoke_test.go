package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"arcs/internal/obs"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// against the program.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload,
		seed:     7,
		window:   300 * time.Millisecond,
		traced:   traced,
		size: sizes{csvTuples: 20_000, hiresTuples: 5_000, hiresBins: 40,
			batch: 50, bodies: 4, setupReps: 2},
		base: t.TempDir(),
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that every oracle passes and that every metric BENCHMARK.json
// names is emitted with its unit and defined in README.md.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	checkDefs := func(t *testing.T, res *result, defs []metricDef, spec []metricSpec) {
		if len(defs) != len(spec) {
			t.Errorf("program has %d metrics, BENCHMARK.json %d", len(defs), len(spec))
		}
		for i, d := range spec {
			if i < len(defs) && defs[i] != (metricDef{d.Name, d.Unit}) {
				t.Errorf("metric %d: program has %v, BENCHMARK.json %v", i, defs[i], d)
			}
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("metric %s (%s) emitted as %+v", d.Name, d.Unit, m)
			}
			if !strings.Contains(string(readme), "`"+d.Name+"`") {
				t.Errorf("README.md does not define %s", d.Name)
			}
		}
		if len(res.Metrics) != len(spec) {
			t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(spec))
		}
	}

	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name, traced)
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				res, err := run(context.Background(), cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
				}
				if !traced {
					checkDefs(t, res, endToEnd, spec.EndToEnd)
					for _, d := range endToEnd {
						if v := res.Metrics[d.name].Value; v <= 0 {
							t.Errorf("%s = %g, want > 0", d.name, v)
						}
					}
					return
				}
				checkDefs(t, res, perLayer, spec.PerLayer)
				f, err := os.Open(filepath.Join(cfg.base, "trace-"+name+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				tr, err := obs.ReadTrace(f)
				if err != nil {
					t.Fatal(err)
				}
				if len(tr.PhaseTree()) == 0 {
					t.Error("trace has no spans")
				}
			})
		}
	}
}

// TestNoSamplesFails checks that a workload whose ops all fail ends the
// run with an error instead of a result without medians.
func TestNoSamplesFails(t *testing.T) {
	workloads["always-fails"] = func(b *bench) error {
		b.loop(func(*obs.Observer) (time.Duration, error) { return 0, errors.New("boom") })
		return nil
	}
	defer delete(workloads, "always-fails")
	_, err := run(context.Background(), tinyConfig(t, "always-fails", false), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no samples") {
		t.Fatalf("err = %v, want a no-samples error", err)
	}
}

// TestStressFloor checks that a traced run fails when its workload no
// longer stresses the layer it exists for.
func TestStressFloor(t *testing.T) {
	for name := range stressShare {
		cfg := tinyConfig(t, name, true)
		cfg.size.stressFloor = 1
		_, err := run(context.Background(), cfg, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "no longer stresses") {
			t.Errorf("%s: err = %v, want a stress-floor error", name, err)
		}
	}
}
