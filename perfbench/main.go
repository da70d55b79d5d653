// Command perfbench is the repository benchmark. It times the three
// things users do with arcs — mine a CSV file into rules (cmd/arcs),
// re-mine a loaded System at high grid resolution (the arcs.New +
// SegmentAll library path), and score points against a served model
// (arcsd POST /apply) — checks every output against an oracle, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 they are the per-layer ones: the run
// records spans around each public call it makes, collects core's own
// spans and counters through core.Config.Observer, keeps them in memory
// and writes them at exit as JSONL that `arcstrace summarize` reads.
// README.md lists the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload csv-mine --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"arcs/internal/obs"
)

// sizes are the input sizes of a run; the smoke test shrinks them.
type sizes struct {
	csvTuples   int // rows of the csv-mine file
	hiresTuples int // rows of the remine-hires and apply-serve file
	hiresBins   int // bins per axis on remine-hires and apply-serve
	batch       int // points per /apply request
	bodies      int // distinct pre-encoded /apply request bodies
	setupReps   int // set-up repetitions; setup_s is their median
	// stressFloor is the share of its layer a traced run of csv-mine or
	// remine-hires must reach; tiny inputs stress no layer that much.
	stressFloor float64
}

var fullSize = sizes{
	csvTuples:   1_000_000,
	hiresTuples: 200_000,
	hiresBins:   200,
	batch:       1000,
	bodies:      64,
	setupReps:   9,
	stressFloor: 0.8,
}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	window   time.Duration // length of the timed window
	traced   bool
	size     sizes
	// base holds the per-run scratch directory (removed at exit) and
	// the span files of traced runs.
	base string
}

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of a --trace 0 run, emitted on every workload.
// BENCHMARK.json lists the same names and units; README.md defines them
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a --trace 1 run, emitted on every workload;
// a layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"dataset.infer_s", "s"},
	{"dataset.load_s", "s"},
	{"dataset.mb_per_s", "MB/s"},
	{"dataset.rows", "count"},
	{"dataset.rows_quarantined", "count"},
	{"core.build_s", "s"},
	{"core.ingest_s", "s"},
	{"core.binfit_s", "s"},
	{"core.count_s", "s"},
	{"core.verify_index_s", "s"},
	{"counts.mem_bytes", "bytes"},
	{"counts.backend", "code"},
	{"core.run_s", "s"},
	{"core.search_s", "s"},
	{"core.thresholds_s", "s"},
	{"core.probe_s", "s"},
	{"core.probe_batch_workers", "count"},
	{"optimizer.probes", "count"},
	{"optimizer.cache_hit_ratio", "ratio"},
	{"engine.mine_s", "s"},
	{"bitop.cluster_s", "s"},
	{"bitop.and_word_ops", "count"},
	{"bitop.cmp_word_ops", "count"},
	{"bitop.candidates", "count"},
	{"bitop.rounds", "count"},
	{"verify.verify_s", "s"},
	{"verify.fastpath_ratio", "ratio"},
	{"verify.rules", "count"},
	{"mdl.mdl_s", "s"},
	{"report.write_s", "s"},
	{"registry.publish_s", "s"},
	{"registry.activate_s", "s"},
	{"serve.handler_s", "s"},
	{"segment.score_s", "s"},
	{"serve.decode_share", "ratio"},
	{"client.overhead_s", "s"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.deadline_exceeded", "count"},
	{"runtime.gc_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"bench.op_s", "s"},
	{"bench.ref_pass_s", "s"},
	{"bench.unattributed_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.load_share", "ratio"},
	{"bench.mine_cluster_share", "ratio"},
}

// maxUnattributed is the span-coverage floor of a traced run: more than
// this share of op wall time outside every benchmark span fails the run.
const maxUnattributed = 0.05

// stressShare names, per workload, the layer share that must reach
// sizes.stressFloor in a traced run, to show that the workload still
// stresses the layer it exists for.
var stressShare = map[string]string{
	"csv-mine":     "bench.load_share",
	"remine-hires": "bench.mine_cluster_share",
}

// workloads maps each workload name to the function that generates its
// inputs, sets it up and times it. README.md says why each exists.
var workloads = map[string]func(*bench) error{
	"csv-mine":     runCSVMine,
	"remine-hires": runRemine,
	"apply-serve":  runApply,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{size: fullSize, base: filepath.Join(".bench_build", "perfbench")}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s: encoding result: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is the state of one run, shared by the workload and the
// reporting code.
type bench struct {
	config
	ctx context.Context
	dir string  // scratch directory of this run
	tr  *tracer // nil when tracing is off

	attempted, failed int
	setups            []float64 // seconds per set-up repetition
	untracedOps       []float64 // op seconds in the timed window
	tracedOps         []float64
	refs              []float64 // seconds per pass of the reference kernel
	refErr            error     // why the reference kernel could not run
	// setupRefs[i] and opRefs[i] are the median reference passes timed
	// just before setups[i] and untracedOps[i] (see ref.go).
	setupRefs, opRefs []float64
	// perOp is the tuples an op processes. apply-serve sets rates instead:
	// points per second in each slice of its window, with the slice's
	// median reference pass in rateRefs.
	perOp           float64
	rates, rateRefs []float64
	rss             []float64 // peak RSS in MB while untraced ops ran
	rssErr          error     // why a peak could not be measured
	e2e, layer      map[string]float64
	measured        map[string]float64 // end-to-end times before scaling
	notes           []note             // workload-specific lines of the table
}

// note is one line of the human-readable table.
type note struct {
	name  string
	value float64
	unit  string
	extra string
}

func (b *bench) note(name string, value float64, unit, extra string) {
	b.notes = append(b.notes, note{name, value, unit, extra})
}

// fail counts a failed op; the first few reasons go to standard error.
func (b *bench) fail(err error) {
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s: op failed: %v\n", b.workload, err)
	}
}

// run executes one workload and assembles its result line. Everything
// else it prints is the human-readable table.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if procs, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > ncpu {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", procs, ncpu)
	}
	if err := os.MkdirAll(cfg.base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.base, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{config: cfg, ctx: ctx, dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	if cfg.traced {
		b.tr = newTracer()
	}
	if err := runWorkload(b); err != nil {
		return nil, err
	}
	if len(b.untracedOps) == 0 || (cfg.traced && len(b.tracedOps) == 0) {
		return nil, fmt.Errorf("no samples: %d ops attempted, %d failed", b.attempted, b.failed)
	}
	for _, err := range []error{b.rssErr, b.refErr} {
		if err != nil {
			return nil, err
		}
	}
	// Every time metric is scaled to the reference machine (see ref.go);
	// the table also prints the measured figures.
	ops := scaled(b.untracedOps, b.opRefs)
	b.measured = map[string]float64{
		"setup_s":   median(b.setups),
		"op_p50_ms": 1000 * median(b.untracedOps),
	}
	b.e2e["setup_s"] = median(scaled(b.setups, b.setupRefs))
	b.e2e["op_p50_ms"] = 1000 * median(ops)
	if b.perOp > 0 {
		b.measured["tuples_per_s"] = b.perOp / median(b.untracedOps)
		b.e2e["tuples_per_s"] = b.perOp / median(ops)
	} else {
		// A rate scales inversely to a time.
		rates := make([]float64, len(b.rates))
		for i, r := range b.rates {
			rates[i] = r * b.rateRefs[i] / refNominal
		}
		b.measured["tuples_per_s"] = median(b.rates)
		b.e2e["tuples_per_s"] = median(rates)
	}
	b.e2e["peak_rss_mb"] = median(b.rss)
	b.layer["bench.ref_pass_s"] = median(b.refs)

	defs := endToEnd
	metricsOut := b.e2e
	if cfg.traced {
		b.tr.fillLayers(b)
		b.layer["bench.trace_overhead"] = median(b.tracedOps)/median(b.untracedOps) - 1
		path := filepath.Join(cfg.base, "trace-"+cfg.workload+".jsonl")
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace: %s\n", path)
		defs = perLayer
		metricsOut = b.layer
	}
	b.print(out)
	if cfg.traced {
		if share := b.layer["bench.unattributed_share"]; share > maxUnattributed {
			return nil, fmt.Errorf("spans cover only %.1f%% of op time; at most %.0f%% may be unattributed",
				100*(1-share), 100*maxUnattributed)
		}
		if name, ok := stressShare[cfg.workload]; ok && b.layer[name] < cfg.size.stressFloor {
			return nil, fmt.Errorf("%s = %.3f is below %.2f: the workload no longer stresses its layer",
				name, b.layer[name], cfg.size.stressFloor)
		}
	}

	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := metricsOut[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print writes the human-readable table: every end-to-end metric, the
// workload's own named figures, and in a traced run every layer metric.
func (b *bench) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  window %s  traced %v\n", b.workload, b.seed, b.window, b.traced)
	row := func(name string, v float64, unit, extra string) {
		fmt.Fprintf(w, "  %-28s %14s %-6s %s\n", name, strconv.FormatFloat(v, 'g', 6, 64), unit, extra)
	}
	for _, d := range endToEnd {
		extra := ""
		if v, ok := b.measured[d.name]; ok {
			extra = "scaled to the reference machine; measured " + strconv.FormatFloat(v, 'g', 6, 64)
		}
		row(d.name, b.e2e[d.name], d.unit, extra)
	}
	row("ref_pass_ms", 1000*median(b.refs), "ms", fmt.Sprintf("n=%d passes of the reference kernel; nominal %g ms", len(b.refs), 1000*refNominal))
	row("fail_ratio", float64(b.failed)/float64(max(b.attempted, 1)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", b.failed, b.attempted))
	row("op_min_ms", 1000*quantile(b.untracedOps, 0), "ms", fmt.Sprintf("n=%d untraced ops", len(b.untracedOps)))
	row("op_max_ms", 1000*quantile(b.untracedOps, 1), "ms", "")
	for _, n := range b.notes {
		row(n.name, n.value, n.unit, n.extra)
	}
	if !b.traced {
		return
	}
	fmt.Fprintln(w, "per-layer:")
	for _, d := range perLayer {
		row(d.name, b.layer[d.name], d.unit, "")
	}
}

// loop runs op one at a time until the timed window closes, after an
// untimed warm-up op (two in a traced run, one per side). The reference
// kernel runs before each timed op, outside its time. A traced run
// alternates traced and untraced ops so both sides see the same machine
// state; the ratio of their medians is bench.trace_overhead. op gets the
// observer to record into (nil for an untraced op) and returns the op's
// wall time, which excludes its oracle check. The window always yields at
// least one sample per side unless ops keep failing.
func (b *bench) loop(op func(o *obs.Observer) (time.Duration, error)) {
	b.tr.markSetupDone()
	warm := []*obs.Observer{nil}
	if b.tr != nil {
		warm = append(warm, b.tr.o)
	}
	for _, o := range warm {
		b.attempted++
		settle()
		if _, err := op(o); err != nil {
			b.fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	b.tr.markWindow()
	end := time.Now().Add(b.window)
	for i := 0; ; i++ {
		short := len(b.untracedOps) == 0 || (b.tr != nil && len(b.tracedOps) == 0)
		if !time.Now().Before(end) && (!short || i >= 4) {
			break
		}
		var o *obs.Observer
		if b.tr != nil && i%2 == 1 {
			o = b.tr.o
		}
		b.attempted++
		settle()
		ref := b.calibrate()
		if o == nil {
			var d time.Duration
			var err error
			b.measurePeak(func() { d, err = op(nil) })
			if err != nil {
				b.fail(err)
				continue
			}
			b.untracedOps = append(b.untracedOps, d.Seconds())
			b.opRefs = append(b.opRefs, ref)
			continue
		}
		start, rt0 := time.Now(), readRuntime()
		d, err := op(o)
		if err != nil {
			b.fail(err)
			continue
		}
		b.tracedOps = append(b.tracedOps, d.Seconds())
		b.tr.addOps(start, time.Now(), 1, readRuntime().sub(rt0))
	}
	b.tr.endWindow()
}

// setup times one set-up repetition into setup_s, after a calibration
// of the reference kernel. fn gets the observer to record into, nil when
// tracing is off.
func (b *bench) setup(fn func(o *obs.Observer) error) error {
	var o *obs.Observer
	if b.tr != nil {
		o = b.tr.o
	}
	settle()
	ref := b.calibrate()
	start := time.Now()
	if err := fn(o); err != nil {
		return err
	}
	end := time.Now()
	b.setups = append(b.setups, end.Sub(start).Seconds())
	b.setupRefs = append(b.setupRefs, ref)
	b.tr.addSetup(start, end)
	return nil
}

// settle collects garbage and returns freed memory to the operating
// system, so that every op and set-up starts from the same heap state.
// It runs outside the timed code.
func settle() {
	debug.FreeOSMemory()
}

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// measurePeak runs fn and records the process's peak resident set size
// while it ran: the kernel's peak is reset through /proc/self/clear_refs
// first. When the peak cannot be reset or read it keeps the error, and
// the run fails with it.
func (b *bench) measurePeak(fn func()) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fn()
		b.rssErr = fmt.Errorf("resetting the peak RSS: %w", err)
		return
	}
	fn()
	mb, err := peakRSSMB()
	if err != nil {
		b.rssErr = err
		return
	}
	b.rss = append(b.rss, mb)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeSample is the Go runtime's GC CPU time and cumulative heap
// allocation at one instant.
type runtimeSample struct {
	gcSeconds  float64
	allocBytes float64
}

var runtimeMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{gcSeconds: s[0].Value.Float64(), allocBytes: float64(s[1].Value.Uint64())}
}

func (r runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{gcSeconds: r.gcSeconds - o.gcSeconds, allocBytes: r.allocBytes - o.allocBytes}
}
