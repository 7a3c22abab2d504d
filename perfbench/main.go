// Command perfbench is the repository's benchmark: one command that runs
// a seeded workload against the live trainer (rt over TCP), the serving
// edge (gate in front of jobs managers) or the paper simulator, checks
// the outputs for correctness, and prints every metric by name with its
// unit and direction.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run is untraced and yields the end-to-end metrics.
// With --trace 1 the measured time is split: an untraced half gives the
// headline that obs.trace_overhead_frac compares against, and a traced
// half times calls into every layer from this package's own wrappers
// (transport.Conn taps, a gate.Shard wrapper, the rt.Config.Checkpoint
// hook, the pool-worker dial func, minidnn.Layer wrappers and direct
// layer calls) and yields the per-layer metrics. The program itself is
// never instrumented.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full report with the run's envelope. See README.md for why each
// workload exists and which end-to-end metric each layer metric should
// move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec names one metric with its unit and direction. Bound is the
// share by which an end-to-end metric may worsen before a change counts
// as a regression (BENCHMARK.json carries the same table).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the user-visible metrics every workload reports from an
// untraced run. Each workload maps them onto its own unit of work (see
// workloadDef.meaning and README.md). The bounds are wide because the
// reference host, a shared 2-vCPU VM, moves timings by about a tenth
// from run to run (README.md records the measured spreads).
var endToEnd = []metricSpec{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics. A workload that does not run a
// layer reports 0 for its metrics and says why in the report.
var perLayer = []metricSpec{
	{"tensor.matmul_gflops", "GFLOP/s", "higher", 0},
	{"tensor.kernel_par_speedup", "x", "higher", 0},
	{"tensor.parallel_call_frac", "frac", "higher", 0},
	{"tensor.kernel_wall_frac", "frac", "lower", 0},
	{"minidnn.conv_fwd_ms", "ms", "lower", 0},
	{"minidnn.conv_bwd_ms", "ms", "lower", 0},
	{"minidnn.dense_fwd_ms", "ms", "lower", 0},
	{"minidnn.dense_bwd_ms", "ms", "lower", 0},
	{"minidnn.token_ms", "ms", "lower", 0},
	{"rt.worker.compute_ms", "ms", "lower", 0},
	{"rt.worker.install_ms", "ms", "lower", 0},
	{"rt.worker.wait_ms", "ms", "lower", 0},
	{"rt.worker.busy_frac", "frac", "higher", 0},
	{"transport.report_send_ms", "ms", "lower", 0},
	{"transport.broadcast_send_ms", "ms", "lower", 0},
	{"transport.bytes_per_iter", "B", "lower", 0},
	{"transport.msgs_per_iter", "count", "lower", 0},
	{"transport.encode_mb_s", "MB/s", "higher", 0},
	{"transport.decode_mb_s", "MB/s", "higher", 0},
	{"rt.coord.pick_us", "us", "lower", 0},
	{"rt.coord.barrier_ms", "ms", "lower", 0},
	{"rt.coord.report_spread_ms", "ms", "lower", 0},
	{"rt.steals_per_iter", "count", "lower", 0},
	{"rt.token_imbalance", "frac", "lower", 0},
	{"rt.iter_residual_frac", "frac", "lower", 0},
	{"rt.seq_tokens_per_s", "1/s", "higher", 0},
	{"durable.checkpoint_ms", "ms", "lower", 0},
	{"durable.checkpoint_mb", "MB", "lower", 0},
	{"durable.stall_frac", "frac", "lower", 0},
	{"jobs.submit_us", "us", "lower", 0},
	{"jobs.queue_wait_ms", "ms", "lower", 0},
	{"jobs.runtime_ms", "ms", "lower", 0},
	{"jobs.queue_depth_max", "count", "lower", 0},
	{"jobs.dials_per_job", "count", "lower", 0},
	{"jobs.assign_rtt_us", "us", "lower", 0},
	{"gate.submit_hold_ms", "ms", "lower", 0},
	{"gate.status_handler_us", "us", "lower", 0},
	{"gate.refused_frac", "frac", "lower", 0},
	{"gate.submit_ms_p50", "ms", "lower", 0},
	{"gate.submit_ms_p99", "ms", "lower", 0},
	{"gate.settle_ms_p99", "ms", "lower", 0},
	{"gate.status_ms_p50", "ms", "lower", 0},
	{"gate.status_ms_p99", "ms", "lower", 0},
	{"tuning.tune_ms", "ms", "lower", 0},
	{"felaengine.sim_ms_per_iter", "ms", "lower", 0},
	{"scheduler.slowpath_frac", "frac", "lower", 0},
	{"scheduler.helped_per_iter", "count", "higher", 0},
	{"sim.samples_per_s", "samples/s", "higher", 0},
	{"obs.trace_overhead_frac", "frac", "lower", 0},
	{"bench.gen_late_ms_p99", "ms", "lower", 0},
	{"bench.client_queue_ms_p99", "ms", "lower", 0},
}

// value is one measured metric: the number plus, for a median or a tail
// percentile, the sample count behind it and how many samples lie
// beyond it (the percentile rule).
type value struct {
	V      float64 `json:"value"`
	N      int     `json:"n,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
	Note   string  `json:"note,omitempty"`
}

// opCount is one operation kind's attempted/failed tally.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// report collects one phase's metrics, operations and correctness
// violations. Safe for concurrent use.
type report struct {
	mu         sync.Mutex
	metrics    map[string]value
	ops        map[string]*opCount
	violations []string
	invalid    []string
}

func newReport() *report {
	return &report{metrics: map[string]value{}, ops: map[string]*opCount{}}
}

func (r *report) set(name string, v value) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// setQ records the q-quantile of xs under the percentile rule.
func (r *report) setQ(name string, xs []float64, q float64) {
	v, beyond, ok := quantile(append([]float64(nil), xs...), q)
	val := value{V: v, N: len(xs), Beyond: beyond}
	if !ok {
		val.Note = fmt.Sprintf("unsupported: %d samples, %d beyond p%g (need %d)", len(xs), beyond, q*100, tailMinBeyond)
	}
	r.set(name, val)
}

// na marks a metric as not applicable to this workload.
func (r *report) na(reason string, names ...string) {
	for _, n := range names {
		r.set(n, value{Note: "n/a: " + reason})
	}
}

// op counts one attempted operation of a kind, failed when ok is false.
func (r *report) op(kind string, ok bool) {
	r.mu.Lock()
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.Attempted++
	if !ok {
		c.Failed++
	}
	r.mu.Unlock()
}

// violate records a correctness violation and fails one operation of
// the given kind: every violation counts as a failed operation.
func (r *report) violate(kind, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	if len(r.violations) < 50 {
		r.violations = append(r.violations, kind+": "+msg)
	}
	r.mu.Unlock()
	r.op(kind, false)
}

// markInvalid flags the measurement (not the program) as untrustworthy.
func (r *report) markInvalid(format string, args ...any) {
	r.mu.Lock()
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// absorbOps adds another phase's operations and violations into r.
func (r *report) absorbOps(o *report) {
	for k, c := range o.ops {
		rc := r.ops[k]
		if rc == nil {
			rc = &opCount{}
			r.ops[k] = rc
		}
		rc.Attempted += c.Attempted
		rc.Failed += c.Failed
	}
	r.violations = append(r.violations, o.violations...)
	r.invalid = append(r.invalid, o.invalid...)
}

// runner measures one workload. Inputs are generated from the seed
// before the first measure call; measure may be called twice (untraced
// then traced) and must check correctness on every call. It returns the
// workload's headline latency (lower is better), against which the
// traced pass's overhead is computed.
type runner interface {
	measure(window time.Duration, traced bool, r *report) (headline float64, err error)
}

// workloadDef is one named workload. meaning explains how the generic
// end-to-end metrics map onto the workload's own unit of work; README.md
// says why each workload exists.
type workloadDef struct {
	name    string
	meaning map[string]string
	prepare func(seed int64, work string) (runner, error)
}

var workloads = []workloadDef{cnnCompute, wideSync, gateJobs, paperSim}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name: cnn-compute, wide-sync, gate-jobs or paper-sim")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 10, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	work, err := os.MkdirTemp(".", ".perfbench-work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: work dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	env := envelope(*name, *seed, *seconds, *trace)
	rn, err := def.prepare(*seed, work)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	window := time.Duration(*seconds) * time.Second
	final := newReport()
	var specs []metricSpec
	if *trace == 0 {
		specs = endToEnd
		if _, err := rn.measure(window, false, final); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
	} else {
		specs = perLayer
		base := newReport()
		p0, err := rn.measure(window/2, false, base)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s untraced half: %v\n", *name, err)
			return 1
		}
		p1, err := rn.measure(window/2, true, final)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced half: %v\n", *name, err)
			return 1
		}
		final.absorbOps(base)
		over := 0.0
		if p0 > 0 {
			over = p1/p0 - 1
		}
		final.set("obs.trace_overhead_frac", value{V: over,
			Note: fmt.Sprintf("headline untraced %.4g vs traced %.4g", p0, p1)})
	}
	return emit(stdout, stderr, def, env, specs, final)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// reportMetric is one metric as printed in the full report line.
type reportMetric struct {
	value
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// emit prints the human-readable table, the full report line and, last,
// the result object.
func emit(stdout, stderr io.Writer, def workloadDef, env map[string]any, specs []metricSpec, r *report) int {
	attempted, failed := 0, 0
	for _, c := range r.ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	out := map[string]map[string]any{}
	full := map[string]reportMetric{}
	fmt.Fprintf(stdout, "perfbench %s seed=%v trace=%v\n", def.name, env["seed"], env["trace"])
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok {
			v.Note = "n/a: not measured by this workload"
		}
		full[s.Name] = reportMetric{value: v, Unit: s.Unit, Better: s.Better}
		out[s.Name] = map[string]any{"value": v.V, "unit": s.Unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %-10s %-6s %s\n", s.Name, v.V, s.Unit, s.Better, tally(v))
	}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(stdout, "  ops %-24s attempted=%d failed=%d\n", k, r.ops[k].Attempted, r.ops[k].Failed)
	}
	for _, v := range r.violations {
		fmt.Fprintf(stderr, "perfbench: violation: %s\n", v)
	}
	for _, v := range r.invalid {
		fmt.Fprintf(stderr, "perfbench: invalid measurement: %s\n", v)
	}
	env["meaning"] = def.meaning
	env["metrics"] = full
	env["ops"] = r.ops
	env["violations"] = r.violations
	env["valid"] = len(r.invalid) == 0
	env["invalid_reasons"] = r.invalid
	line, err := json.Marshal(map[string]any{"report": env})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: report: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	res, err := json.Marshal(map[string]any{
		"correct":   failed == 0 && len(r.violations) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(res))
	return 0
}

func tally(v value) string {
	s := ""
	if v.N > 0 {
		s = fmt.Sprintf("n=%d", v.N)
		if v.Beyond > 0 {
			s += fmt.Sprintf(" beyond=%d", v.Beyond)
		}
	}
	if v.Note != "" {
		s += " " + v.Note
	}
	return strings.TrimSpace(s)
}

// envelope records what a result was measured on.
func envelope(name string, seed int64, seconds, trace int) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"commit":     commit(),
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"timestamp":  time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the measured source: the VCS revision stamped into the
// binary when it was built inside a git work tree, otherwise a digest
// of every Go source and go.mod file under the working directory
// (benchmark checkouts are plain file trees).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// heapPeak samples the live heap as last marked by the garbage
// collector (runtime/metrics, no stop-the-world) until stopped and
// reports the peak in MB. Marked live bytes, unlike bytes in use, do not
// depend on how much garbage happened to be waiting for the next cycle.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	runtime.GC() // start every window from the same collected heap
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
				h.peak = s[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
