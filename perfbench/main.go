// Command perfbench is the repository's end-to-end benchmark. It drives the
// two stages of OptRR through their public entry points — the SPEA2 search
// that produces a privacy/utility front, and the collection service that
// ingests disguised reports through a deployed scheme — and prints one JSON
// result line.
//
//	perfbench --workload optimize --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the workload end to end and reports the
// end-to-end metrics. With --trace 1 it instead replays each layer of the
// pipeline from outside (see layers.go) and reports the per-layer metrics.
// The last line of standard output is the result object; the lines before it
// are a human-readable stamp and table. See README.md for the metric table
// and how to compare two commits.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart approximates the process start time; the search workloads
// count their set-up from here.
var processStart = time.Now()

// spec is one metric as BENCHMARK.json declares it.
type spec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the metrics of an untraced run, in print order. Every
// workload reports every one of them; what each means per workload is in
// README.md.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"quality", "fraction", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []spec{
	{"core.eval_ms", "ms", "lower"},
	{"core.select_ms", "ms", "lower"},
	{"core.vary_ms", "ms", "lower"},
	{"core.omega_ms", "ms", "lower"},
	{"emoo.fitness_ms", "ms", "lower"},
	{"emoo.truncate_ms", "ms", "lower"},
	{"core.evals", "count", "lower"},
	{"core.repair_frac", "fraction", "lower"},
	{"core.omega_improved_frac", "fraction", "higher"},
	{"core.phase_coverage_frac", "fraction", "higher"},
	{"metrics.evaluate_us", "us", "lower"},
	{"obs.trace_overhead_frac", "fraction", "lower"},
	{"metrics.joint_evaluate_us", "us", "lower"},
	{"matrix.kron_inverse_us", "us", "lower"},
	{"core.multi_evals", "count", "lower"},
	{"core.multi_nonevaluate_frac", "fraction", "lower"},
	{"rrclient.disguise_us", "us", "lower"},
	{"rrapi.encode_us", "us", "lower"},
	{"rrapi.body_bytes", "bytes", "lower"},
	{"rrserver.decode_us", "us", "lower"},
	{"rrserver.handler_us", "us", "lower"},
	{"http.roundtrip_us", "us", "lower"},
	{"collector.ingest_us", "us", "lower"},
	{"collector.ingest_plain_us", "us", "lower"},
	{"obs.instrument_frac", "fraction", "lower"},
	{"collector.estimate_us", "us", "lower"},
	{"collector.heavyhitters_ms", "ms", "lower"},
	{"collector.snapshot_ms", "ms", "lower"},
	{"collector.snapshot_bytes", "bytes", "lower"},
	{"collector.restore_ms", "ms", "lower"},
	{"sketch.new_ms", "ms", "lower"},
	{"rr.scheme_encode_ms", "ms", "lower"},
	{"rr.scheme_decode_ms", "ms", "lower"},
	{"rr.scheme_bytes", "bytes", "lower"},
	{"sketch.disguise_us", "us", "lower"},
	{"sketch.ingest_us", "us", "lower"},
	{"sketch.ingest_plain_us", "us", "lower"},
	{"sketch.instrument_frac", "fraction", "lower"},
	{"sketch.snapshot_ms", "ms", "lower"},
	{"sketch.snapshot_bytes", "bytes", "lower"},
	{"sketch.restore_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_report", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"loadgen.late_p90_ms", "ms", "lower"},
}

// options are the knobs every workload reads.
type options struct {
	seed    uint64
	seconds float64 // measurement window
	// tiny shrinks every budget to test size and waives the sample-count
	// rule for percentiles; results are meaningless as measurements.
	tiny bool
}

// window returns share of the measurement window as a duration.
func (o options) window(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	// run measures the workload end to end (--trace 0).
	run func(o options) (*report, error)
}

var workloads = []workload{
	{name: "optimize", run: runOptimize},
	{name: "optimize-multi", run: runOptimizeMulti},
	{name: "collect-dense", run: func(o options) (*report, error) { return runCollect(denseDeployment(), o) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is what a run hands back: the operation tally, the metric values
// and human-readable notes printed above the result line.
type report struct {
	tally
	metrics map[string]float64
	notes   []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts operations — HTTP requests and output checks — and the
// ones that failed. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// op records one operation; a non-nil err marks it failed.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 20 {
			t.failures = append(t.failures, err.Error())
		}
	}
	return err == nil
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) bool {
	if ok {
		return t.op(nil)
	}
	return t.op(fmt.Errorf(format, args...))
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: optimize, optimize-multi or collect-dense")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 measures end to end; 1 replays each layer and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: *seconds}
	var (
		rep   *report
		err   error
		specs = endToEnd
	)
	if *trace == 1 {
		specs = perLayer
		rep, err = traceRun(o)
	} else {
		rep, err = w.run(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := finish(rep, specs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out := bufio.NewWriter(stdout)
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d %s\n", w.name, *seed, *seconds, *trace, stamp())
	writeTable(out, rep, specs)
	for _, f := range rep.failures {
		fmt.Fprintf(out, "# FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out.Write(line)
	out.WriteByte('\n')
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// finish turns a report into the result object, insisting that it carries
// exactly the declared metrics.
func finish(rep *report, specs []spec) (result, error) {
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(rep.metrics) != len(specs) {
		var extra []string
		for name := range rep.metrics {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("undeclared metrics %v", extra)
	}
	return res, nil
}

// writeTable prints the metrics with units and directions, the workload's
// notes and the failed-operation share.
func writeTable(w io.Writer, rep *report, specs []spec) {
	for _, s := range specs {
		fmt.Fprintf(w, "# %-32s %16.6g %-8s %s is better\n", s.Name, rep.metrics[s.Name], s.Unit, s.Better)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "# %-32s %16.6g %-8s lower is better (%d of %d operations)\n", "failed_frac", frac, "fraction", rep.failed, rep.attempted)
}

// stamp describes the machine and build a result was measured on.
func stamp() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source revision: the one the binary was built from when
// the build recorded it, else the current git HEAD, else "unknown" (a
// checkout without git metadata).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
