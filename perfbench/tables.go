package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/timeseries"
)

// goldenTablesPath is the committed full-protocol run whose Table II and
// Table III rows every paper-tables pass must reproduce byte for byte.
const goldenTablesPath = "results/full_run.txt"

// tablesConfig is the offline workload: an evaluation protocol and the
// tables it must print.
type tablesConfig struct {
	opts     experiments.Options
	table2   string
	table3   string
	readings float64 // dataset readings the protocol scores
}

// paperTablesConfig is the paper's full protocol (500 consumers, 60
// training weeks, 50 trials) at Parallelism = GOMAXPROCS. Its inputs are
// fixed by the paper's seed; the committed tables only hold for that seed.
func paperTablesConfig() (tablesConfig, error) {
	raw, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		return tablesConfig{}, err
	}
	t2, t3, err := goldenTables(string(raw))
	if err != nil {
		return tablesConfig{}, err
	}
	opts := experiments.PaperOptions()
	opts.Parallelism = runtime.GOMAXPROCS(0)
	return newTablesConfig(opts, t2, t3), nil
}

func newTablesConfig(opts experiments.Options, t2, t3 string) tablesConfig {
	d := opts.Dataset
	consumers := d.Residential + d.SMEs + d.Unclassified
	return tablesConfig{
		opts: opts, table2: t2, table3: t3,
		readings: float64(consumers * d.Weeks * timeseries.SlotsPerWeek),
	}
}

// goldenTables extracts the rows under "TABLE II:" and "TABLE III:" of a
// committed run, each block up to its first blank line.
func goldenTables(text string) (t2, t3 string, err error) {
	block := func(header string) (string, error) {
		i := strings.Index(text, "\n"+header+"\n")
		if i < 0 {
			return "", fmt.Errorf("%s: no %q block", goldenTablesPath, header)
		}
		rest := text[i+len(header)+2:]
		if j := strings.Index(rest, "\n\n"); j >= 0 {
			rest = rest[:j+1]
		}
		return rest, nil
	}
	if t2, err = block("TABLE II:"); err != nil {
		return "", "", err
	}
	t3, err = block("TABLE III:")
	return t2, t3, err
}

// tablesPass is one evaluation's measurements and gate results.
type tablesPass struct {
	traced      bool
	setup       float64
	generateS   float64
	spans       []span
	ph          *usage
	heapMB      float64
	consumers   int
	quarantined int
	summary     experiments.RunSummary
	failures    []string
}

// runTablesPass sets up (reads nothing new; generates the protocol's
// dataset once so the heap and allocator are warm), then times
// RunEvaluation, dataset generation included, and checks its tables.
func runTablesPass(cfg tablesConfig, traced bool) (*tablesPass, error) {
	t0 := time.Now()
	if _, err := dataset.Generate(cfg.opts.Dataset); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := &tablesPass{traced: traced, setup: time.Since(t0).Seconds()}
	p.generateS = p.setup

	p.ph = startUsage()
	ev, err := experiments.RunEvaluation(cfg.opts)
	p.ph.stop()
	if err != nil {
		return nil, fmt.Errorf("evaluation: %w", err)
	}
	evalStart := int64(p.ph.t0.Sub(t0))
	p.spans = []span{
		{name: "dataset.generate", end: int64(p.generateS * 1e9), parent: -1},
		{name: "experiments.evaluate", start: evalStart, end: evalStart + int64(p.ph.wall*1e9), parent: -1},
	}
	p.heapMB = liveHeapMB()
	p.consumers = ev.Consumers
	p.quarantined = len(ev.Quarantined)
	p.summary = ev.Summary
	if p.quarantined > 0 {
		p.failures = append(p.failures, fmt.Sprintf("%d consumers quarantined", p.quarantined))
	}
	got2, err := experiments.FormatTableII(ev)
	if err != nil {
		return nil, err
	}
	got3, err := experiments.FormatTableIII(ev)
	if err != nil {
		return nil, err
	}
	for _, t := range []struct{ name, got, want string }{
		{"Table II", got2, cfg.table2}, {"Table III", got3, cfg.table3},
	} {
		if t.got != t.want {
			p.failures = append(p.failures, fmt.Sprintf("%s differs from %s:\n%s--- want\n%s", t.name, goldenTablesPath, t.got, t.want))
		}
	}
	return p, nil
}

func runPaperTables(env *runEnv) (*report, error) {
	cfg, err := paperTablesConfig()
	if err != nil {
		return nil, err
	}
	return runTables(env, cfg)
}

func runTables(env *runEnv, cfg tablesConfig) (*report, error) {
	var passes []*tablesPass
	timed := 0.0
	for i := 0; i < minPasses(env.trace) || timed < env.seconds; i++ {
		p, err := runTablesPass(cfg, env.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		fmt.Printf("pass %d: traced=%v setup %.3fs evaluation %.3fs cpu %.3fs heap %.1fMiB consumers %d\n",
			i, p.traced, p.setup, p.ph.wall, p.ph.cpu, p.heapMB, p.consumers)
		passes = append(passes, p)
		timed += p.ph.wall
	}

	rep := newReport()
	var setup, wall, cpu, heap, rate, tracedRate []float64
	for i, p := range passes {
		rep.attempted += int64(p.consumers)
		rep.failed += int64(p.quarantined)
		for _, f := range p.failures {
			rep.fail("pass %d: %s", i, f)
		}
		setup = append(setup, p.setup)
		if p.traced {
			tracedRate = append(tracedRate, cfg.readings/p.ph.wall)
			continue
		}
		wall = append(wall, p.ph.wall)
		cpu = append(cpu, p.ph.cpu)
		heap = append(heap, p.heapMB)
		rate = append(rate, cfg.readings/p.ph.wall)
	}
	rep.note("tables_s", median(wall), "s")
	rep.note("error_frac", float64(rep.failed)/float64(rep.attempted), "frac")
	rep.note("passes", float64(len(passes)), "count")
	if !env.trace {
		rep.set("setup_s", median(setup), "s")
		rep.set("readings_per_s", median(rate), "1/s")
		rep.set("verdict_p50_ms", median(wall)*1e3, "ms")
		rep.set("verdict_p99_ms", quantile(wall, 0.99)*1e3, "ms")
		rep.set("heap_mb", median(heap), "MiB")
		rep.set("cpu_s", median(cpu), "s")
		return rep, nil
	}

	layers := map[string][]float64{}
	var spans []span
	for _, p := range passes {
		if !p.traced {
			continue
		}
		st := p.summary.Stage
		l := map[string]float64{
			"dataset.generate_s":        p.generateS,
			"detect.suite_train_s":      st.Train,
			"attack.search_s":           st.Attack,
			"detect.detect_s":           st.Detect,
			"experiments.worker_util":   p.summary.WorkerUtilization,
			"bench.trace_overhead_frac": 1 - median(tracedRate)/median(rate),
		}
		goLayers(l, p.ph, int64(cfg.readings))
		for k, v := range l {
			layers[k] = append(layers[k], v)
		}
		spans = p.spans
	}
	setLayers(rep, layers)
	noteSelfTimes(rep, spans)
	return rep, writeSpans(env.spans, spans)
}
