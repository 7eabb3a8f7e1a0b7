package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ami"
	"repro/internal/experiments"
)

// The self-tests run every workload at toy scale and show that each
// correctness gate trips on a deliberately broken expectation.

func toyBulk() fleetConfig {
	return fleetConfig{
		Meters: 40, Templates: 4, TrainWeeks: 3, Shards: 2, Conns: 2,
		FrameSlots: 48, Days: 7, TheftEvery: 4,
	}
}

func toyPaced() fleetConfig {
	return fleetConfig{
		Meters: 40, Templates: 4, TrainWeeks: 3, Shards: 2, Conns: 2,
		FrameSlots: 2, Rate: 400, Hours: 5, RetrainEvery: 1, HistoryWeeks: 2,
	}
}

func mustPass(t *testing.T, cfg fleetConfig, traced bool, phases int) *fleetPass {
	t.Helper()
	p, err := runFleetPass(cfg, defaultSeed, t.TempDir(), traced, phases)
	if err != nil {
		t.Fatalf("pass: %v", err)
	}
	return p
}

func TestFleetBulkToy(t *testing.T) {
	cfg := toyBulk()
	p := mustPass(t, cfg, false, 1)
	if len(p.failures) > 0 {
		t.Fatalf("gates failed: %v", p.failures)
	}
	for _, ph := range p.phases {
		if want := int64(cfg.Meters * cfg.Days * cfg.FrameSlots); ph.readings != want {
			t.Errorf("readings = %d, want %d", ph.readings, want)
		}
		if ph.judged != cfg.Meters*cfg.Days || ph.rps <= 0 || ph.verdict.p50 <= 0 {
			t.Errorf("judged = %d, rps = %g, verdict p50 = %g", ph.judged, ph.rps, ph.verdict.p50)
		}
	}
	if p.alerts.High < int64(cfg.Meters/cfg.TheftEvery) {
		t.Errorf("HIGH alerts = %d, want at least one per tampered meter", p.alerts.High)
	}
}

func TestFleetPacedToyTraced(t *testing.T) {
	cfg := toyPaced()
	p := mustPass(t, cfg, true, 2)
	if len(p.failures) > 0 {
		t.Fatalf("gates failed: %v", p.failures)
	}
	for q, ph := range p.phases {
		if ph.retrainOK != cfg.Meters*cfg.sweeps() || ph.retrainS <= 0 {
			t.Errorf("phase %d re-train: %d ok in %gs", q, ph.retrainOK, ph.retrainS)
		}
		for _, name := range []string{"ami.send_rtt_p50_us", "ami.bind_rtt_p50_us", "ami.store_series_p50_us",
			"serve.queue_wait_p50_us", "detect.observe_mean_ns", "detect.retrain_p50_us"} {
			if ph.layer[name] <= 0 {
				t.Errorf("phase %d: %s = %g, want > 0", q, name, ph.layer[name])
			}
		}
		names := map[string]int{}
		for _, s := range ph.spans {
			names[s.name]++
		}
		if names["frame"] != ph.frames || names["serve.retrain"] != cfg.Meters || names["ami.store_series"] != cfg.Meters {
			t.Errorf("phase %d: span counts %v for %d frames and %d consumers", q, names, ph.frames, cfg.Meters)
		}
	}
}

func TestDroppedSinkBatchTripsGate(t *testing.T) {
	cfg := toyBulk()
	var dropped atomic.Bool
	cfg.wrapSink = func(next ami.ReadingSink) ami.ReadingSink {
		return func(meterID string, rs []ami.BatchReading) {
			if meterID == "meter-000001" && dropped.CompareAndSwap(false, true) {
				return
			}
			next(meterID, rs)
		}
	}
	p := mustPass(t, cfg, false, 1)
	if !dropped.Load() || !hasFailure(p.failures, "observed") {
		t.Fatalf("dropped=%v, failures %v: want an observed != accepted gate failure", dropped.Load(), p.failures)
	}
}

func TestAlertCountGate(t *testing.T) {
	cfg := toyBulk()
	p := mustPass(t, cfg, false, 1)
	cfg.ExpectAlerts = &p.alerts
	env := &runEnv{seed: defaultSeed, spans: t.TempDir() + "/spans.csv.gz"}
	rep, err := fleetReport(env, cfg, []*fleetPass{p})
	if err != nil || len(rep.failures) > 0 {
		t.Fatalf("matching counts: err %v, failures %v", err, rep.failures)
	}
	cfg.ExpectAlerts = &alertCounts{High: p.alerts.High + 1}
	rep, err = fleetReport(env, cfg, []*fleetPass{p})
	if err != nil || !hasFailure(rep.failures, "recorded for seed") {
		t.Fatalf("wrong counts: err %v, failures %v", err, rep.failures)
	}
}

func TestPaperTablesToy(t *testing.T) {
	opts := experiments.QuickOptions()
	ev, err := experiments.RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := experiments.FormatTableII(ev)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := experiments.FormatTableIII(ev)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runTablesPass(newTablesConfig(opts, t2, t3), false)
	if err != nil || len(p.failures) > 0 {
		t.Fatalf("matching tables: err %v, failures %v", err, p.failures)
	}
	wrong := strings.Replace(t2, "%", "#", 1)
	p, err = runTablesPass(newTablesConfig(opts, wrong, t3), false)
	if err != nil || !hasFailure(p.failures, "Table II differs") {
		t.Fatalf("wrong row: err %v, failures %v", err, p.failures)
	}
}

func TestGoldenTablesParse(t *testing.T) {
	raw, err := os.ReadFile("../" + goldenTablesPath)
	if err != nil {
		t.Fatal(err)
	}
	t2, t3, err := goldenTables(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(t2, "\n"); n != 5 || !strings.HasPrefix(t2, "Electricity Theft Detector") {
		t.Errorf("Table II block has %d lines:\n%s", n, t2)
	}
	if n := strings.Count(t3, "\n"); n != 9 || !strings.Contains(t3, "Profit ($)") {
		t.Errorf("Table III block has %d lines:\n%s", n, t3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 50, parent: 0},  // overlaps a
		{name: "c", start: 90, end: 120, parent: 0}, // runs past the root
		{name: "d", start: 15, end: 20, parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %g, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %g, want 4", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %g, want 0", q)
	}
}

func TestTrimmedMean(t *testing.T) {
	if m := trimmedMean([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("four values: %g, want the median 2.5", m)
	}
	if m := trimmedMean([]float64{100, 1, 3, 2, 4, 5}); m != 3.5 {
		t.Errorf("six values: %g, want 3.5 (mean of 2..5)", m)
	}
}

func TestEmitResultLine(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	rep.set("setup_s", 0.5, "s")
	rep.attempted = 10
	rep.fail("a broken gate")
	if code := emit(f, rep); code == 0 {
		t.Error("a failed gate must exit non-zero")
	}
	_ = f.Close()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || string(res["correct"]) != "false" || string(res["failed"]) != "1" {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
}

func hasFailure(failures []string, substr string) bool {
	for _, f := range failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

// TestMetricNamesMatchBenchmarkJSON pins every workload's result line to
// the metrics BENCHMARK.json declares: all end-to-end metrics untraced,
// all per-layer metrics traced.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for _, w := range want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: %s = %+v, want unit %q", what, w.Name, m, w.Unit)
			}
		}
	}
	dir := t.TempDir()
	cfg := toyBulk()
	p := mustPass(t, cfg, false, 1)
	for _, traced := range []bool{false, true} {
		rep, err := fleetReport(&runEnv{trace: traced, spans: dir + "/fleet.csv.gz"}, cfg, []*fleetPass{p})
		if err != nil {
			t.Fatal(err)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		check(fmt.Sprintf("fleet traced=%v", traced), rep.metrics, want)
	}

	opts := experiments.QuickOptions()
	opts.Dataset.Residential, opts.Trials = 4, 2
	for _, traced := range []bool{false, true} {
		rep, err := runTables(&runEnv{seconds: 0.001, trace: traced, spans: dir + "/tables.csv.gz"}, newTablesConfig(opts, "", ""))
		if err != nil {
			t.Fatal(err)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		check(fmt.Sprintf("tables traced=%v", traced), rep.metrics, want)
	}
}
