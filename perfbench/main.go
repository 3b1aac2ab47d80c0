// Command perfbench is hbmvolt's benchmark: it runs one named workload
// against in-process hbmvolt services from a workload seed, checks that
// every output is correct, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on its last
// line of output. See README.md for the workloads and metrics.
//
//	go build -o perfbench . && ./perfbench --workload sweep-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.resubmits", "count"},
	{"loadgen.error_rate", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"request.self_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.payload_bytes", "B"},
	{"gate.verify_ms", "ms"},
	{"service.job_run_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hits_memory", "count"},
	{"service.cache_hits_disk", "count"},
	{"service.cache_misses", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_evictions", "count"},
	{"service.sweep_runs", "count"},
	{"service.admission_rejected", "count"},
	{"fleet.forward_ms", "ms"},
	{"fleet.owner_requests_per_forward", "count"},
	{"fleet.forwards", "count"},
	{"fleet.forward_failures", "count"},
	{"fleet.degraded", "count"},
	{"fleet.hedges", "count"},
	{"fleet.replicated_bytes", "B"},
	{"campaign.self_ms", "ms"},
	{"campaign.expand_ms", "ms"},
	{"campaign.run_s", "s"},
	{"campaign.emit_ms", "ms"},
	{"campaign.longest_cell_s", "s"},
	{"campaign.cells", "count"},
	{"campaign.unique_sweeps", "count"},
	{"core.sweep_ms", "ms"},
	{"core.points_per_s", "1/s"},
	{"core.sweep_allocs", "count"},
	{"board.new_ms", "ms"},
	{"axi.fillcheck_ms", "ms"},
	{"axi.words_per_s", "1/s"},
	{"faults.enumerate_us", "us"},
	{"faults.enumerate_allocs", "count"},
	{"faults.faults_per_enum", "count"},
	{"faults.pattern_flips_us", "us"},
	{"faults.enum_hits", "count"},
	{"faults.enum_computes", "count"},
	{"faults.enum_hit_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var phase string
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep-cold, sweep-warm, fleet-cold or campaign-repro")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run, the ladder replay, and the tracing overhead")
	flag.StringVar(&phase, "phase", "", "internal: \"ladder\" runs only the ladder replay (a traced run starts it in a fresh process)")
	flag.IntVar(&cfg.corrupt, "corrupt", 0, "self-test: corrupt this (1-based) timed result in transfer (campaign-repro: one artifact byte), to prove the correctness gate trips")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.conc = runtime.NumCPU()

	// A run that cannot finish inside the benchmark's time limit is
	// broken; stop it rather than hang.
	// A stop signal cancels the run, so child processes are stopped too.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, os.Interrupt)
	defer stop()
	res, err := run(ctx, &cfg, phase)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run stopped early: %w", ctx.Err())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed")
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// run executes one run in a scratch directory inside the working
// directory (the checkout) and removes it afterwards.
func run(ctx context.Context, cfg *config, phase string) (*result, error) {
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(benchDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	printFacts(os.Stdout, cfg, phase)
	switch {
	case phase == "ladder":
		return ladderPhase(cfg)
	case phase != "":
		return nil, fmt.Errorf("unknown phase %q", phase)
	case cfg.trace:
		return tracedRun(ctx, cfg)
	default:
		return endToEndRun(ctx, cfg)
	}
}

// benchDir is the checkout-local directory for build output, scratch
// files and span dumps.
const benchDir = ".bench_build"

func endToEndRun(ctx context.Context, cfg *config) (*result, error) {
	o, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := checkUsable(o); err != nil {
		return nil, err
	}
	res := baseResult(o)
	m := res.Metrics
	m["setup_s"] = metric{median(o.setupS), "s"}
	m["latency_p50_ms"] = metric{o.p50, "ms"}
	m["capacity_rps"] = metric{o.capacity, "1/s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, nil
}

// checkUsable rejects a run with nothing to report: no request
// succeeded and none returned a wrong output either.
func checkUsable(o *outcome) error {
	if o.open.ok == 0 && o.incorrect() == 0 {
		return fmt.Errorf("no request succeeded: %v", o.firstErr())
	}
	return nil
}

func baseResult(o *outcome) *result {
	if err := o.firstErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", err)
	}
	return &result{
		Correct:   o.incorrect() == 0,
		Attempted: o.attempted(),
		Failed:    o.failed(),
		Metrics:   make(map[string]metric),
	}
}

// tracedRun measures the per-layer metrics: an untraced run of the same
// seed in a fresh process (the tracing-overhead baseline), the traced
// run in this one, and the ladder replay in another fresh process.
func tracedRun(ctx context.Context, cfg *config) (*result, error) {
	args := []string{"--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10)}
	secs := strconv.FormatFloat(cfg.seconds, 'g', -1, 64)
	base, err := child(ctx, append(args, "--seconds", secs, "--trace", "0")...)
	if err != nil {
		return nil, fmt.Errorf("untraced baseline: %w", err)
	}

	o, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := checkUsable(o); err != nil {
		return nil, err
	}
	if err := o.tr.write(filepath.Join(benchDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}

	lad, err := child(ctx, append(args, "--seconds", secs, "-phase", "ladder")...)
	if err != nil {
		return nil, fmt.Errorf("ladder replay: %w", err)
	}

	res := baseResult(o)
	res.Correct = res.Correct && base.Correct && lad.Correct
	res.Attempted += base.Attempted + lad.Attempted
	res.Failed += base.Failed + lad.Failed
	all := merge([]tally{o.open, o.closed})
	l := o.layers
	l["loadgen.sent"] = float64(all.sent)
	l["loadgen.ok"] = float64(all.ok)
	l["loadgen.failed"] = float64(all.failed)
	l["loadgen.error_rate"] = ratio(float64(all.failed), float64(all.sent))
	l["loadgen.late_p99_ms"] = quantile(o.open.lateMs, 0.99)
	l["loadgen.latency_p90_ms"] = o.p90
	l["loadgen.latency_p99_ms"] = quantile(o.open.latMs, 0.99)
	untraced := base.Metrics["latency_p50_ms"].Value
	l["trace.overhead_pct"] = 100 * ratio(o.p50-untraced, untraced)
	l["trace.spans"] = float64(len(o.tr.snapshot()))
	l["request.self_ms"] = median(o.tr.selfMs("request"))
	l["campaign.self_ms"] = median(o.tr.selfMs("campaign"))
	for name, m := range lad.Metrics {
		l[name] = m.Value
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{l[d.name], d.unit}
	}
	return res, nil
}

// ladderPhase replays the workload's inputs below the service.
func ladderPhase(cfg *config) (*result, error) {
	tr := &tracer{}
	l, n, err := runLadder(cfg, tr)
	var ge *gateError
	if err != nil && !errors.As(err, &ge) {
		return nil, err
	}
	if werr := tr.write(filepath.Join(benchDir, "traces", fmt.Sprintf("%s-seed%d-ladder.jsonl", cfg.workload, cfg.seed))); werr != nil {
		return nil, werr
	}
	res := &result{Correct: err == nil, Attempted: n, Metrics: make(map[string]metric)}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Attempted++
		res.Failed = 1
		return res, nil
	}
	for name, v := range l {
		res.Metrics[name] = metric{v, ""}
	}
	return res, nil
}

// child runs this program again with args and returns its result.
func child(ctx context.Context, args ...string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res, perr := lastResult(out.Bytes())
	if perr != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, perr
	}
	return res, nil
}

// lastResult parses the result object on the last non-empty line.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("no result line in output %q", last)
	}
	return &res, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printFacts writes the host and run facts a reader needs to judge
// noise and scaling.
func printFacts(w *os.File, cfg *config, phase string) {
	offered := map[string]float64{"sweep-cold": coldRate, "sweep-warm": warmRate, "fleet-cold": fleetRate}
	facts := map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"phase":       phase,
		"offered_rps": offered[cfg.workload],
		"in_flight":   cfg.conc,
	}
	blob, _ := json.Marshal(facts) // a map of plain values always marshals
	fmt.Fprintf(w, "facts %s\n", blob)
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

// printResult writes one human-readable line per metric, then the
// result object as the last line.
func printResult(w *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or Inf value fails to marshal: a metric bug.
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", blob)
}
