package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/ami"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/meter"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

// defaultSeed is the seed the recorded alert counts belong to.
const defaultSeed = 1

// pacedRate is fleet-paced's fixed offered load in frames (each a Bind
// plus a two-reading batch) per second: about a third of the saturated
// capacity, 18.4k frames/s, measured once on a 2-CPU host (see
// README.md). It is never derived at run time.
const pacedRate = 6000

// alertCounts are the service's alert transitions per tier.
type alertCounts struct{ Low, Medium, High, Cleared int64 }

// fleetConfig sizes a fleet workload.
type fleetConfig struct {
	Meters     int // fleet size
	Templates  int // synthetic consumption profiles cycled across meters
	TrainWeeks int // template weeks each registered detector trains on
	Shards     int // head-end store shards
	Conns      int // load-generator connections
	FrameSlots int // readings per frame

	// Closed loop (Rate == 0): in a phase every meter sends Days frames,
	// each after the previous ack, after one Bind.
	Days int
	// Open loop (Rate > 0): a phase offers every meter Hours frames, one
	// Bind plus one frame each, round-robin over the fleet at Rate frames
	// per second. Phases last seconds, not fractions of one, so that a
	// short host stall backs up a small share of a phase's frames.
	Rate  float64
	Hours int

	HistoryWeeks int // honest weeks per meter loaded during set-up
	TheftEvery   int // every n-th meter reports zero (0 = none)
	// Open loop: a RetrainAll sweep halfway through every RetrainEvery
	// hours of the fleet (0 = none); a phase's Hours are a multiple of it.
	RetrainEvery int

	// ExpectAlerts are the alert counts recorded for defaultSeed: at the
	// end of the pass, or with re-train sweeps at the end of set-up (a
	// sweep resets baselines wherever it happens to meet each live stream,
	// so later transitions depend on timing).
	ExpectAlerts *alertCounts

	// wrapSink lets the self-tests inject a faulty sink.
	wrapSink func(ami.ReadingSink) ami.ReadingSink
}

// loadConns is the generator's connection count: two, or fewer on a
// smaller host.
func loadConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// Production settings shared with `fdeta serve`: four shards, a 1%
// significance KLD detector, day-long persistence gates.
var (
	kldConfig   = detect.KLDConfig{Significance: 0.01}
	alertPolicy = serve.AlertPolicy{MinStreak: 48, MediumStreak: 96, HighStreak: 144}
)

func bulkConfig() fleetConfig {
	return fleetConfig{
		Meters: 10000, Templates: 64, TrainWeeks: 11, Shards: 4, Conns: loadConns(),
		FrameSlots: timeseries.SlotsPerDay, Days: 7, TheftEvery: 20,
		ExpectAlerts: &alertCounts{Low: 1627, Medium: 2002, High: 1408, Cleared: 1501},
	}
}

func pacedConfig() fleetConfig {
	return fleetConfig{
		Meters: 4000, Templates: 64, TrainWeeks: 11, Shards: 4, Conns: loadConns(),
		FrameSlots: 2, Rate: pacedRate, Hours: 4, RetrainEvery: 2, HistoryWeeks: 2,
		ExpectAlerts: &alertCounts{Low: 1498, Medium: 1123, High: 561, Cleared: 1746},
	}
}

// perMeter is how many frames each meter sends in one phase.
func (c fleetConfig) perMeter() int {
	if c.Rate > 0 {
		return c.Hours
	}
	return c.Days
}

func (c fleetConfig) frames() int { return c.Meters * c.perMeter() }

// sweeps is how many re-train sweeps a phase runs.
func (c fleetConfig) sweeps() int {
	if c.RetrainEvery <= 0 {
		return 0
	}
	return c.Hours / c.RetrainEvery
}

// phaseSeconds is an open-loop phase's scheduled length.
func (c fleetConfig) phaseSeconds() float64 { return float64(c.frames()) / c.Rate }

func (c fleetConfig) validate(phases int) error {
	if c.Meters < 1 || c.Templates < 1 || c.Conns < 1 || c.FrameSlots < 1 || c.Shards < 1 || c.perMeter() < 1 {
		return fmt.Errorf("fleet: meters, templates, conns, frame size, shards and frames per meter must be positive")
	}
	if c.RetrainEvery > 0 && (c.Rate <= 0 || c.Hours%c.RetrainEvery != 0) {
		return fmt.Errorf("fleet: re-train sweeps need the open loop and a whole number of them per phase")
	}
	if c.Rate > 0 && c.Meters%c.Conns != 0 {
		// Frame k goes to connection k%Conns and meter k%Meters; an even
		// split keeps each meter on one connection, so its frames arrive
		// in order.
		return fmt.Errorf("fleet: meters (%d) must be a multiple of connections (%d)", c.Meters, c.Conns)
	}
	if live := phases * c.perMeter() * c.FrameSlots; live > timeseries.SlotsPerWeek {
		return fmt.Errorf("fleet: %d live slots per meter exceed the one week synthesised", live)
	}
	return nil
}

// fleet is one pass's running system: a WAL-backed sharded head-end with
// a keyring, its sink feeding a serve.Server with one compact KLD stream
// per meter, and the load generator's connections.
type fleet struct {
	cfg     fleetConfig
	traced  bool
	clk     clock
	ids     []string
	index   map[string]int
	demand  []timeseries.Series // per template, from its first live week on
	tracks  []*track
	head    *ami.ShardedHeadEnd
	srv     *serve.Server
	clients []*ami.Client
	walDir  string
	walFS   string
	history int64 // readings loaded during set-up

	// The current phase: its frames' times and its first slot. Set
	// between phases, while nothing is in flight.
	ft    *frameTimes
	slot0 int
}

// fleetKey is the one key every meter signs its batches with.
func fleetKey(seed int64) []byte {
	k := sha256.Sum256([]byte(fmt.Sprintf("perfbench-fleet-%d", seed)))
	return k[:]
}

// newFleet synthesises, trains, registers and starts a fleet, and loads
// its history weeks. Everything it does is set-up time.
func newFleet(cfg fleetConfig, seed int64, tmpRoot string, traced bool) (fl *fleet, err error) {
	ds, err := dataset.Generate(dataset.Config{
		Residential: cfg.Templates, Weeks: cfg.TrainWeeks + cfg.HistoryWeeks + 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	type template struct {
		d    *detect.KLDDetector
		seed timeseries.Series
	}
	tmpls := make([]template, cfg.Templates)
	fl = &fleet{
		cfg:    cfg,
		traced: traced,
		clk:    clock{time.Now()},
		index:  make(map[string]int, cfg.Meters),
		ft:     newFrameTimes(0, 0, traced),
		slot0:  cfg.HistoryWeeks * timeseries.SlotsPerWeek, // history is untimed
	}
	for i := range tmpls {
		c := ds.Consumers[i]
		train, rest, err := c.Demand.Split(cfg.TrainWeeks)
		if err != nil {
			return nil, err
		}
		d, err := detect.NewKLDDetector(train, kldConfig)
		if err != nil {
			return nil, err
		}
		tmpls[i] = template{d: d, seed: train.MustWeek(cfg.TrainWeeks - 1)}
		fl.demand = append(fl.demand, rest)
	}

	keys := make(map[string][]byte, cfg.Meters)
	key := fleetKey(seed)
	for i := 0; i < cfg.Meters; i++ {
		id := fmt.Sprintf("meter-%06d", i)
		fl.ids = append(fl.ids, id)
		fl.index[id] = i
		keys[id] = key
	}

	fl.walDir, err = os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	fl.walFS = filesystemName(fl.walDir)
	defer func() {
		if err != nil {
			fl.close()
		}
	}()

	// The sink is bound before Listen: no reading can be accepted before
	// the assignment, and the head-end's goroutines that call it are
	// started by (and so ordered after) Listen and the shard queues.
	var sink ami.ReadingSink
	fl.head = ami.NewSharded(cfg.Shards,
		ami.WithWAL(fl.walDir),
		ami.WithKeyring(ami.NewKeyring(keys)),
		ami.WithDrainTimeout(2*time.Second),
		ami.WithSink(func(meterID string, rs []ami.BatchReading) { sink(meterID, rs) }))
	if err := fl.head.WALError(); err != nil {
		return nil, err
	}
	var store serve.Store = fl.head
	if traced {
		store = &tracedStore{Store: fl.head, fl: fl}
	}
	fl.srv, err = serve.New(
		serve.WithStore(store),
		serve.WithAlertPolicy(alertPolicy),
		serve.WithRetrain(fl.trackedRetrain(serve.KLDRetrainer(cfg.TrainWeeks, kldConfig))))
	if err != nil {
		return nil, err
	}
	sink = fl.srv.Sink()
	if traced {
		sink = fl.tracedSink(sink)
	}
	if cfg.wrapSink != nil {
		sink = cfg.wrapSink(sink)
	}

	for i, id := range fl.ids {
		t := tmpls[i%cfg.Templates]
		sd, err := t.d.NewCompactStream(t.seed)
		if err != nil {
			return nil, err
		}
		tr := &track{clk: fl.clk, ft: fl.ft, liveStart: fl.slot0, frameLen: cfg.FrameSlots, frames: cfg.perMeter()}
		if cfg.Rate > 0 {
			tr.base, tr.stride = i, cfg.Meters
		} else {
			tr.base, tr.stride = i*cfg.Days, 1
		}
		fl.tracks = append(fl.tracks, tr)
		if err := fl.srv.Register(id, &trackedStream{StreamDetector: sd, t: tr}, 0); err != nil {
			return nil, err
		}
	}

	addr, err := fl.head.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for c := 0; c < cfg.Conns; c++ {
		cl, err := ami.DialBatch(addr, fl.ids[c], key, 5*time.Second)
		if err != nil {
			return nil, err
		}
		fl.clients = append(fl.clients, cl)
	}
	if cfg.HistoryWeeks > 0 {
		if err := fl.loadHistory(); err != nil {
			return nil, err
		}
	}
	return fl, nil
}

// beginPhase points the frame accounting at phase q's frames.
func (fl *fleet) beginPhase(q int) {
	fl.ft = newFrameTimes(fl.cfg.frames(), fl.cfg.Meters, fl.traced)
	fl.slot0 = fl.cfg.HistoryWeeks*timeseries.SlotsPerWeek + q*fl.cfg.perMeter()*fl.cfg.FrameSlots
	for _, t := range fl.tracks {
		t.ft, t.liveStart = fl.ft, fl.slot0
	}
}

// frameOf maps a delivered batch to its frame in the current phase.
func (fl *fleet) frameOf(meterID string, slot int64) (int, bool) {
	m, ok := fl.index[meterID]
	r := int(slot) - fl.slot0
	if !ok || r < 0 {
		return 0, false
	}
	j := r / fl.cfg.FrameSlots
	if j >= fl.cfg.perMeter() {
		return 0, false
	}
	if fl.cfg.Rate > 0 {
		return j*fl.cfg.Meters + m, true
	}
	return m*fl.cfg.Days + j, true
}

// fill writes meter m's readings for slots [slot, slot+len(rs)).
func (fl *fleet) fill(rs []meter.Reading, m, slot int) {
	d := fl.demand[m%fl.cfg.Templates]
	theft := fl.tampered(m)
	for i := range rs {
		kw := d[slot+i]
		if theft {
			kw = 0
		}
		rs[i] = meter.Reading{MeterID: fl.ids[m], Slot: timeseries.Slot(slot + i), KW: kw}
	}
}

func (fl *fleet) tampered(m int) bool {
	return fl.cfg.TheftEvery > 0 && m%fl.cfg.TheftEvery == 0
}

// eachConn runs fn once per connection and waits for all of them.
func (fl *fleet) eachConn(fn func(c int, cl *ami.Client) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(fl.clients))
	for c, cl := range fl.clients {
		wg.Add(1)
		go func(c int, cl *ami.Client) {
			defer wg.Done()
			errs[c] = fn(c, cl)
		}(c, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// loadHistory sends every meter's honest history weeks as day-long
// frames over the same wire path and waits until the service has
// observed them.
func (fl *fleet) loadHistory() error {
	slots := fl.cfg.HistoryWeeks * timeseries.SlotsPerWeek
	err := fl.eachConn(func(c int, cl *ami.Client) error {
		rs := make([]meter.Reading, timeseries.SlotsPerDay)
		for m := c; m < fl.cfg.Meters; m += len(fl.clients) {
			if err := cl.Bind(fl.ids[m]); err != nil {
				return fmt.Errorf("history bind %s: %w", fl.ids[m], err)
			}
			for s := 0; s < slots; s += len(rs) {
				fl.fill(rs, m, s)
				if err := cl.SendBatch(rs); err != nil {
					return fmt.Errorf("history send %s: %w", fl.ids[m], err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fl.head.Flush()
	fl.srv.Flush()
	fl.history = int64(fl.cfg.Meters * slots)
	if got := fl.srv.Stats().Observed; got != fl.history {
		return fmt.Errorf("history: observed %d of %d readings", got, fl.history)
	}
	return nil
}

// bind rebinds a connection to meter m ahead of frame f.
func (fl *fleet) bind(cl *ami.Client, m, f int) error {
	if fl.traced {
		fl.ft.bindStart[f] = fl.clk.now()
	}
	err := cl.Bind(fl.ids[m])
	if fl.traced {
		fl.ft.bindEnd[f] = fl.clk.now()
	}
	if err != nil {
		return fmt.Errorf("bind %s: %w", fl.ids[m], err)
	}
	return nil
}

// send sends frame f and stamps its ack.
func (fl *fleet) send(cl *ami.Client, rs []meter.Reading, f int) error {
	if fl.traced {
		fl.ft.sendStart[f] = fl.clk.now()
	}
	if err := cl.SendBatch(rs); err != nil {
		return fmt.Errorf("send %s slot %d: %w", rs[0].MeterID, rs[0].Slot, err)
	}
	fl.ft.ack[f] = fl.clk.now()
	return nil
}

// driveClosed is fleet-bulk's closed loop: each connection binds its
// next meter and sends that meter's frames, each after the previous ack.
func (fl *fleet) driveClosed() error {
	return fl.eachConn(func(c int, cl *ami.Client) error {
		rs := make([]meter.Reading, fl.cfg.FrameSlots)
		for m := c; m < fl.cfg.Meters; m += len(fl.clients) {
			for j := 0; j < fl.cfg.Days; j++ {
				f := m*fl.cfg.Days + j
				fl.ft.start[f] = fl.clk.now()
				if j == 0 {
					if err := fl.bind(cl, m, f); err != nil {
						return err
					}
				}
				fl.fill(rs, m, fl.slot0+j*fl.cfg.FrameSlots)
				if err := fl.send(cl, rs, f); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// driveOpen is fleet-paced's open loop: frame k is due at k/Rate seconds
// after start, goes to meter k%Meters (its next hour) over connection
// k%Conns, and is timed from its due time. A connection that falls
// behind sends late frames back to back; how late is recorded.
func (fl *fleet) driveOpen(start int64) error {
	interval := 1e9 / fl.cfg.Rate
	return fl.eachConn(func(c int, cl *ami.Client) error {
		rs := make([]meter.Reading, fl.cfg.FrameSlots)
		for k := c; k < len(fl.ft.start); k += len(fl.clients) {
			due := start + int64(float64(k)*interval)
			fl.clk.sleepUntil(due)
			fl.ft.start[k] = due
			if fl.traced {
				fl.ft.late[k] = fl.clk.now() - due
			}
			m, j := k%fl.cfg.Meters, k/fl.cfg.Meters
			if err := fl.bind(cl, m, k); err != nil {
				return err
			}
			fl.fill(rs, m, fl.slot0+j*fl.cfg.FrameSlots)
			if err := fl.send(cl, rs, k); err != nil {
				return err
			}
		}
		return nil
	})
}

// close stops the generator, then the head-end (its queues drain into
// the sink), then the service, and removes the WAL.
func (fl *fleet) close() {
	for _, cl := range fl.clients {
		_ = cl.Close()
	}
	if fl.head != nil {
		_ = fl.head.Close()
	}
	if fl.srv != nil {
		_ = fl.srv.Close()
	}
	if fl.walDir != "" {
		_ = os.RemoveAll(fl.walDir)
	}
}

// counters are the head-end's and the service's cumulative counters.
type counters struct {
	head ami.HeadEndStats
	wal  ami.WALStats
	srv  serve.Stats
}

func (fl *fleet) counters() counters {
	return counters{fl.head.Stats(), fl.head.WALStats(), fl.srv.Stats()}
}

// fleetPhase is what one timed phase measured.
type fleetPhase struct {
	use       *usage
	walSyncS  float64 // time the WAL spent in fsync, summed over shards
	rps       float64
	readings  int64
	heapMB    float64
	judged    int // frames acked and judged
	ack       latency
	verdict   latency
	tails     []float64 // verdict p99 per window of the phase, in ms
	retrainS  float64   // mean seconds per sweep
	retrainOK int       // summed over the phase's sweeps
	retrainKO int
	frames    int
	unacked   int
	layer     map[string]float64 // per-layer metrics of a traced phase
	spans     []span
}

// latency summarises one phase's per-frame times in milliseconds.
type latency struct{ p50, p90, p99 float64 }

func latencyOf(ms []float64) latency {
	return latency{quantile(ms, 0.5), quantile(ms, 0.9), quantile(ms, 0.99)}
}

// fleetPass is one set-up, its timed phases and its gate results.
type fleetPass struct {
	traced   bool
	setup    float64 // seconds
	walFS    string
	phases   []*fleetPhase
	alerts   alertCounts // the gated counts (see fleetConfig.ExpectAlerts)
	final    alertCounts
	sent     int64 // readings sent, history included
	lost     int64 // readings rejected, failing auth or dropped
	failures []string
}

func (p *fleetPass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// runFleetPass sets a fleet up, drives its timed phases, checks every
// gate and tears it down.
func runFleetPass(cfg fleetConfig, seed int64, tmpRoot string, traced bool, phases int) (*fleetPass, error) {
	if err := cfg.validate(phases); err != nil {
		return nil, err
	}
	t0 := time.Now()
	fl, err := newFleet(cfg, seed, tmpRoot, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer fl.close()
	p := &fleetPass{traced: traced, setup: time.Since(t0).Seconds(), walFS: fl.walFS}
	if cfg.sweeps() > 0 {
		p.alerts = alertsOf(fl.srv.Stats())
	}
	for q := 0; q < phases; q++ {
		p.phases = append(p.phases, fl.runPhase(q, p))
	}
	p.check(fl)
	return p, nil
}

// walSync sums the head-end's fsync time across shards from its own
// fdeta_ami_wal_sync_seconds histograms.
func walSync(head *ami.ShardedHeadEnd) float64 {
	snap := head.Metrics().Snapshot()
	total := 0.0
	for _, m := range snap.Metrics {
		if m.Name == "fdeta_ami_wal_sync_seconds" {
			total += m.Sum
		}
	}
	return total
}

func alertsOf(st serve.Stats) alertCounts {
	return alertCounts{st.AlertsLow, st.AlertsMedium, st.AlertsHigh, st.AlertsClear}
}

// runPhase drives phase q from the first send until the service has
// observed every acked reading, with re-train sweeps beside the ingest
// when configured.
func (fl *fleet) runPhase(q int, p *fleetPass) *fleetPhase {
	fl.beginPhase(q)
	ph := &fleetPhase{frames: len(fl.ft.start)}
	before := fl.counters()
	sync0 := walSync(fl.head)
	use := startUsage()
	first := fl.clk.now()
	var retrainWG sync.WaitGroup
	if n := fl.cfg.sweeps(); n > 0 {
		retrainWG.Add(1)
		go func() {
			defer retrainWG.Done()
			// Several sweeps per phase, so its tail does not hang on one.
			every := fl.cfg.phaseSeconds() / float64(n) * 1e9
			for k := 0; k < n; k++ {
				fl.clk.sleepUntil(first + int64((float64(k)+0.5)*every))
				r0 := time.Now()
				ok, ko := fl.srv.RetrainAll()
				ph.retrainS += time.Since(r0).Seconds() / float64(n)
				ph.retrainOK += ok
				ph.retrainKO += ko
			}
		}()
	}
	var driveErr error
	if fl.cfg.Rate > 0 {
		driveErr = fl.driveOpen(first)
	} else {
		driveErr = fl.driveClosed()
	}
	retrainWG.Wait()
	fl.head.Flush()
	fl.srv.Flush()
	end := fl.clk.now()
	use.stop()
	ph.use = use
	ph.walSyncS = walSync(fl.head) - sync0
	ph.heapMB = liveHeapMB()
	if driveErr != nil {
		p.fail("phase %d: load generator: %v", q, driveErr)
	}
	if want := fl.cfg.Meters * fl.cfg.sweeps(); ph.retrainOK != want || ph.retrainKO != 0 {
		p.fail("phase %d: re-train: %d ok, %d failed, want %d ok", q, ph.retrainOK, ph.retrainKO, want)
	}
	ph.readings = fl.srv.Stats().Observed - before.srv.Observed
	ph.rps = float64(ph.readings) / (float64(end-first) / 1e9)
	ft := fl.ft
	var ackMS, verdictMS []float64
	for f := range ft.start {
		if ft.ack[f] == 0 {
			ph.unacked++
			continue
		}
		if ft.verdict[f] == 0 {
			p.fail("phase %d: frame %d acked but never judged", q, f)
			continue
		}
		ackMS = append(ackMS, float64(ft.ack[f]-ft.start[f])/1e6)
		verdictMS = append(verdictMS, float64(ft.verdict[f]-ft.start[f])/1e6)
	}
	ph.judged = len(verdictMS)
	ph.ack, ph.verdict = latencyOf(ackMS), latencyOf(verdictMS)
	// The tail is taken per window: an open-loop phase is one, its p99
	// pooling the phase's sweeps; a closed-loop phase, which sends its
	// frames in index order, is cut into windows of about two seconds, so
	// a run averages a dozen tails instead of three.
	windows := 1
	if fl.cfg.Rate == 0 {
		windows = max(1, int(math.Round(ph.use.wall/2)))
	}
	for w := 0; w < windows; w++ {
		lo, hi := w*len(verdictMS)/windows, (w+1)*len(verdictMS)/windows
		ph.tails = append(ph.tails, quantile(verdictMS[lo:hi], 0.99))
	}
	if ph.unacked > 0 {
		p.fail("phase %d: %d of %d frames not acked", q, ph.unacked, ph.frames)
	}
	if fl.traced {
		ph.spans = ft.spans()
		ph.layer = fleetLayers(fl, ph, before)
	}
	return ph
}

// check applies the fleet correctness gates over the whole pass:
// acked == accepted == observed, nothing rejected, dropped, stale or
// missing, the WAL clean, and every tampered meter at HIGH.
func (p *fleetPass) check(fl *fleet) {
	acked := fl.history
	p.sent = fl.history
	for _, ph := range p.phases {
		acked += int64((ph.frames - ph.unacked) * fl.cfg.FrameSlots)
		p.sent += int64(ph.frames * fl.cfg.FrameSlots)
	}
	hs := fl.head.Stats()
	ws := fl.head.WALStats()
	ss := fl.srv.Stats()
	p.lost = hs.Rejected + hs.AuthFailed + ss.Dropped
	if hs.Accepted != acked {
		p.fail("head-end accepted %d readings, acked %d", hs.Accepted, acked)
	}
	if ss.Observed != hs.Accepted {
		p.fail("service observed %d of %d accepted readings", ss.Observed, hs.Accepted)
	}
	if hs.Rejected != 0 || hs.AuthFailed != 0 {
		p.fail("head-end rejected %d readings (%d failed auth)", hs.Rejected+hs.AuthFailed, hs.AuthFailed)
	}
	if ss.Dropped != 0 || ss.Stale != 0 || ss.Missing != 0 || ss.Errors != 0 || ss.Unknown != 0 {
		p.fail("service dropped %d, stale %d, missing %d, errors %d, unknown %d",
			ss.Dropped, ss.Stale, ss.Missing, ss.Errors, ss.Unknown)
	}
	if !ws.Enabled || ws.Errors != 0 {
		p.fail("WAL enabled=%v with %d errors", ws.Enabled, ws.Errors)
	}
	for m := 0; m < fl.cfg.Meters; m++ {
		if !fl.tampered(m) {
			continue
		}
		if cs, ok := fl.srv.ConsumerState(fl.ids[m]); !ok || cs.Tier != "HIGH" {
			p.fail("tampered meter %s ended at tier %q, want HIGH", fl.ids[m], cs.Tier)
		}
	}
	p.final = alertsOf(ss)
	if fl.cfg.sweeps() == 0 {
		p.alerts = p.final
	}
}

// fleetLayers derives a traced phase's per-layer metrics from its spans
// and from what the layers' own counters gained since before.
func fleetLayers(fl *fleet, ph *fleetPhase, before counters) map[string]float64 {
	ft := fl.ft
	var sendRTT, bindRTT, applyLag, block, queueWait, late []float64
	var busy int64
	timedObs := 0
	for f := range ft.start {
		if ft.ack[f] == 0 {
			continue
		}
		sendRTT = append(sendRTT, float64(ft.ack[f]-ft.sendStart[f])/1e3)
		if ft.bindEnd[f] != 0 {
			bindRTT = append(bindRTT, float64(ft.bindEnd[f]-ft.bindStart[f])/1e3)
		}
		if ft.sinkStart[f] != 0 {
			applyLag = append(applyLag, float64(ft.sinkStart[f]-ft.ack[f])/1e3)
			block = append(block, float64(ft.callEnd[f]-ft.callStart[f])/1e3)
			queueWait = append(queueWait, float64(ft.obsFirst[f]-ft.sinkStart[f])/1e3)
		}
		if fl.cfg.Rate > 0 {
			late = append(late, float64(ft.late[f])/1e6)
		}
		busy += ft.obsBusy[f]
		timedObs += fl.cfg.FrameSlots
	}
	var series []float64
	for c := range ft.seriesEnd {
		if ft.seriesEnd[c] != 0 {
			series = append(series, float64(ft.seriesEnd[c]-ft.seriesStart[c])/1e3)
		}
	}
	now := fl.counters()
	hs, ws, ss := now.head, now.wal, now.srv
	hs0, ws0, ss0 := before.head, before.wal, before.srv
	layer := map[string]float64{
		"ami.send_rtt_p50_us":       quantile(sendRTT, 0.5),
		"ami.send_rtt_p99_us":       quantile(sendRTT, 0.99),
		"ami.bind_rtt_p50_us":       quantile(bindRTT, 0.5),
		"ami.apply_lag_p50_us":      quantile(applyLag, 0.5),
		"ami.apply_lag_p99_us":      quantile(applyLag, 0.99),
		"ami.store_series_p50_us":   quantile(series, 0.5),
		"ami.accepted":              float64(hs.Accepted - hs0.Accepted),
		"ami.rejected":              float64(hs.Rejected - hs0.Rejected),
		"ami.auth_failed":           float64(hs.AuthFailed - hs0.AuthFailed),
		"ami.wal_appended":          float64(ws.Appended - ws0.Appended),
		"ami.wal_errors":            float64(ws.Errors - ws0.Errors),
		"ami.wal_fsync_ms":          ph.walSyncS * 1e3,
		"serve.sink_block_total_ms": sum(block) / 1e3,
		"serve.sink_block_p99_us":   quantile(block, 0.99),
		"serve.queue_wait_p50_us":   quantile(queueWait, 0.5),
		"serve.queue_wait_p99_us":   quantile(queueWait, 0.99),
		"serve.observed":            float64(ss.Observed - ss0.Observed),
		"serve.dropped":             float64(ss.Dropped - ss0.Dropped),
		"serve.stale":               float64(ss.Stale - ss0.Stale),
		"serve.missing":             float64(ss.Missing - ss0.Missing),
		"serve.alerts_high":         float64(ss.AlertsHigh - ss0.AlertsHigh),
		"detect.observe_busy_s":     float64(busy) / 1e9,
		"detect.retrain_p50_us":     quantile(selfByName(ph.spans)["serve.retrain"], 0.5),
		"bench.gen_late_p99_ms":     quantile(late, 0.99),
	}
	if timedObs > 0 {
		layer["detect.observe_mean_ns"] = float64(busy) / float64(timedObs)
	}
	goLayers(layer, ph.use, ph.readings)
	return layer
}

// goLayers adds the Go runtime's per-phase figures.
func goLayers(layer map[string]float64, use *usage, readings int64) {
	if readings > 0 {
		layer["go.alloc_bytes_per_reading"] = float64(use.gost.allocBytes) / float64(readings)
		layer["go.allocs_per_reading"] = float64(use.gost.allocs) / float64(readings)
	}
	layer["go.gc_cycles"] = float64(use.gost.gcCycles)
	layer["go.gc_pause_ms"] = float64(use.gost.gcPause) / 1e6
}

func runFleetBulk(env *runEnv) (*report, error)  { return runFleet(env, bulkConfig()) }
func runFleetPaced(env *runEnv) (*report, error) { return runFleet(env, pacedConfig()) }

// runFleet makes set-up plus measure passes until the run has measured
// its seconds (and made at least minPasses), then reports medians over
// the phases. A closed-loop pass times one phase; an open-loop pass
// spreads the run's seconds over phases of fixed length.
func runFleet(env *runEnv, cfg fleetConfig) (*report, error) {
	if env.seed != defaultSeed {
		cfg.ExpectAlerts = nil
	}
	phases := 1
	if cfg.Rate > 0 {
		phases = int(math.Ceil(env.seconds / float64(minPasses(env.trace)) / cfg.phaseSeconds()))
	}
	fmt.Printf("fleet: %d meters over %d templates, %d shards, %d serve workers, %d connections, %d phase(s) per pass, GOMAXPROCS %d\n",
		cfg.Meters, cfg.Templates, cfg.Shards, serve.DefaultWorkers, cfg.Conns, phases, runtime.GOMAXPROCS(0))
	var passes []*fleetPass
	timed := 0.0
	for i := 0; i < minPasses(env.trace) || timed < env.seconds; i++ {
		p, err := runFleetPass(cfg, env.seed, env.tmpRoot, env.trace && i%2 == 1, phases)
		if err != nil {
			return nil, err
		}
		fmt.Printf("pass %d: traced=%v wal-fs %s setup %.3fs alerts %+v final %+v\n", i, p.traced, p.walFS, p.setup, p.alerts, p.final)
		for q, ph := range p.phases {
			fmt.Printf("  phase %d: %.3fs cpu %.3fs fsync %.3fs heap %.1fMiB frames %d readings %d rps %.0f verdict p50 %.3fms p90 %.3fms p99 %.3fms retrain %.3fs\n",
				q, ph.use.wall, ph.use.cpu, ph.walSyncS, ph.heapMB, ph.frames, ph.readings, ph.rps,
				ph.verdict.p50, ph.verdict.p90, ph.verdict.p99, ph.retrainS)
			timed += ph.use.wall
		}
		if p.traced {
			// Only the last traced phase's spans are written; drop the rest
			// so they do not inflate later passes' live heap.
			for _, prev := range passes {
				for _, ph := range prev.phases {
					ph.spans = nil
				}
			}
			for _, ph := range p.phases[:len(p.phases)-1] {
				ph.spans = nil
			}
		}
		passes = append(passes, p)
	}
	return fleetReport(env, cfg, passes)
}

func fleetReport(env *runEnv, cfg fleetConfig, passes []*fleetPass) (*report, error) {
	rep := newReport()
	var setup, rps, tracedRPS, tracedCPU, heap, cpu, ackP50, ackP99, verP50, verP90, verP99, retrain []float64
	layers := map[string][]float64{}
	var spans []span
	for i, p := range passes {
		for _, f := range p.failures {
			rep.fail("pass %d: %s", i, f)
		}
		if p.alerts != passes[0].alerts {
			rep.fail("pass %d: alerts %+v differ from pass 0's %+v", i, p.alerts, passes[0].alerts)
		}
		if cfg.ExpectAlerts != nil && p.alerts != *cfg.ExpectAlerts {
			rep.fail("pass %d: alerts %+v, recorded for seed %d: %+v", i, p.alerts, defaultSeed, *cfg.ExpectAlerts)
		}
		setup = append(setup, p.setup)
		rep.attempted += p.sent
		rep.failed += p.lost
		for _, ph := range p.phases {
			rep.attempted += int64(ph.frames)
			rep.failed += int64(ph.unacked)
			if cfg.sweeps() > 0 {
				rep.attempted += int64(cfg.Meters * cfg.sweeps())
				rep.failed += int64(ph.retrainKO)
			}
			if p.traced {
				tracedRPS = append(tracedRPS, ph.rps)
				tracedCPU = append(tracedCPU, ph.use.cpu)
				for k, v := range ph.layer {
					layers[k] = append(layers[k], v)
				}
				if ph.spans != nil {
					spans = ph.spans
				}
				continue
			}
			rps = append(rps, ph.rps)
			heap = append(heap, ph.heapMB)
			cpu = append(cpu, ph.use.cpu)
			ackP50 = append(ackP50, ph.ack.p50)
			ackP99 = append(ackP99, ph.ack.p99)
			verP50 = append(verP50, ph.verdict.p50)
			verP90 = append(verP90, ph.verdict.p90)
			verP99 = append(verP99, ph.tails...)
			retrain = append(retrain, ph.retrainS)
		}
	}
	rep.note("ingest_rps", median(rps), "1/s")
	rep.note("ack_p50_ms", median(ackP50), "ms")
	rep.note("ack_p99_ms", median(ackP99), "ms")
	rep.note("verdict_p90_ms", median(verP90), "ms")
	if cfg.sweeps() > 0 {
		rep.note("retrain_s", median(retrain), "s")
	}
	rep.note("error_frac", float64(rep.failed)/float64(rep.attempted), "frac")
	rep.note("frames_per_phase", float64(cfg.frames()), "count")
	rep.note("passes", float64(len(passes)), "count")
	if !env.trace {
		rep.set("setup_s", median(setup), "s")
		rep.set("readings_per_s", median(rps), "1/s")
		rep.set("verdict_p50_ms", median(verP50), "ms")
		// A window's p99 rests on few rare events and scatters widely; the
		// trimmed mean uses every window but the two extremes, where the
		// median would rest on one or two.
		rep.set("verdict_p99_ms", trimmedMean(verP99), "ms")
		rep.set("heap_mb", median(heap), "MiB")
		rep.set("cpu_s", median(cpu), "s")
		return rep, nil
	}
	overhead := 1 - median(tracedRPS)/median(rps)
	if cfg.Rate > 0 {
		// The open loop delivers the offered rate traced or not, so the
		// decorators' cost shows in CPU, not in throughput.
		overhead = median(tracedCPU)/median(cpu) - 1
	}
	layers["bench.trace_overhead_frac"] = []float64{overhead}
	setLayers(rep, layers)
	noteSelfTimes(rep, spans)
	return rep, writeSpans(env.spans, spans)
}
