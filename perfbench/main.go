// Command perfbench is the repository benchmark: it drives the online
// meter-to-verdict pipeline (wire, MAC, WAL, shards, store, serve, KLD
// stream, alerts) over loopback TCP and the offline Tables II/III protocol,
// checks that every output is correct, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output.
//
// It uses only the packages' public APIs; per-layer timing comes from
// decorators at the seams those APIs expose (client calls, the head-end's
// reading sink, the service's stream detector, re-train function and
// store). Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload fleet-bulk --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(run *runEnv) (*report, error){
	"fleet-bulk":   runFleetBulk,
	"fleet-paced":  runFleetPaced,
	"paper-tables": runPaperTables,
}

// runEnv is what a workload runner receives from the command line.
type runEnv struct {
	seed    int64
	seconds float64
	trace   bool
	tmpRoot string // per-run scratch directory inside the checkout
	spans   string // where a traced run writes its spans
}

// metric is one named, unit-tagged measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome: the metrics it measured, the operations
// it attempted and how many failed, and every correctness gate that did
// not hold.
type report struct {
	metrics   map[string]metric
	info      map[string]metric // printed by name, not part of the result line
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(name string, v float64, unit string) { r.info[name] = metric{v, unit} }

// fail records a broken correctness gate.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fleet-bulk, fleet-paced or paper-tables")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (fleet-bulk|fleet-paced|paper-tables), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// The full paper protocol and the committed tables live in the
	// repository; refuse early when run outside a checkout.
	if _, err := os.Stat(goldenTablesPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}

	scratch := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	tmpRoot, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	// The run's WAL directories live under tmpRoot; it is removed on every
	// exit path, the deadline and signals included.
	var removeOnce sync.Once
	cleanup := func() { removeOnce.Do(func() { _ = os.RemoveAll(tmpRoot) }) }
	defer cleanup()

	deadline := runDeadline(*seconds)
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded its %s deadline\n", deadline)
		cleanup()
		os.Exit(3)
	})
	defer watchdog.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigs; ok {
			fmt.Fprintln(os.Stderr, "perfbench: interrupted")
			cleanup()
			os.Exit(4)
		}
	}()
	defer func() { signal.Stop(sigs); close(sigs) }()

	env := &runEnv{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		tmpRoot: tmpRoot,
		spans:   filepath.Join(scratch, fmt.Sprintf("spans-%s-%d.csv.gz", *workload, *seed)),
	}
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d GOMAXPROCS %d %s\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := runner(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	return emit(os.Stdout, rep)
}

// emit prints every metric by name and unit, then the result line. A run
// whose gates failed still prints its measurements but exits non-zero.
func emit(w *os.File, rep *report) int {
	for _, set := range []map[string]metric{rep.info, rep.metrics} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "metric %-32s %16.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "gate FAILED: %s\n", f)
	}
	failed := rep.failed
	if failed == 0 && len(rep.failures) > 0 {
		failed = 1 // a broken gate with no failed operation still fails the run
	}
	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer its workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"ami.send_rtt_p50_us", "us"},
	{"ami.send_rtt_p99_us", "us"},
	{"ami.bind_rtt_p50_us", "us"},
	{"ami.apply_lag_p50_us", "us"},
	{"ami.apply_lag_p99_us", "us"},
	{"ami.store_series_p50_us", "us"},
	{"ami.accepted", "count"},
	{"ami.rejected", "count"},
	{"ami.auth_failed", "count"},
	{"ami.wal_appended", "count"},
	{"ami.wal_errors", "count"},
	{"ami.wal_fsync_ms", "ms"},
	{"serve.sink_block_total_ms", "ms"},
	{"serve.sink_block_p99_us", "us"},
	{"serve.queue_wait_p50_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"serve.observed", "count"},
	{"serve.dropped", "count"},
	{"serve.stale", "count"},
	{"serve.missing", "count"},
	{"serve.alerts_high", "count"},
	{"detect.observe_mean_ns", "ns"},
	{"detect.observe_busy_s", "s"},
	{"detect.retrain_p50_us", "us"},
	{"dataset.generate_s", "s"},
	{"detect.suite_train_s", "s"},
	{"attack.search_s", "s"},
	{"detect.detect_s", "s"},
	{"experiments.worker_util", "frac"},
	{"go.alloc_bytes_per_reading", "B"},
	{"go.allocs_per_reading", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// setLayers reports the median over traced passes of every per-layer
// metric.
func setLayers(rep *report, layers map[string][]float64) {
	for _, l := range perLayer {
		rep.set(l.name, median(layers[l.name]), l.unit)
	}
}

// runDeadline is the hard limit on a whole run: an allowance for the
// passes' set-up and teardown plus six times the measured seconds (168 s
// at --seconds 18). A run that exceeds it fails instead of hanging.
func runDeadline(seconds float64) time.Duration {
	return 60*time.Second + time.Duration(6*seconds*float64(time.Second))
}

// minPasses is how many set-up plus measure passes a run makes at least:
// set-up time is a median over them, and a traced run alternates
// untraced and traced passes so it can state the tracing overhead.
func minPasses(trace bool) int {
	if trace {
		return 4
	}
	return 3
}
