package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"

	"repro/internal/ami"
	"repro/internal/detect"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

// clock stamps events as nanoseconds since the start of a pass.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// sleepUntil blocks until the clock reads at least t. The runtime's timers
// wake an idle process on a millisecond grid, so the last stretch is a
// nanosleep system call, which the kernel times to tens of microseconds.
func (c clock) sleepUntil(t int64) {
	for now := c.now(); now < t; now = c.now() {
		wait := time.Duration(t - now)
		if wait > 2*time.Millisecond {
			time.Sleep(wait - time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early wake (EINTR) loops
	}
}

// frameTimes holds one column per event of every frame in a phase. Each
// element is written by exactly one goroutine (the client, the shard
// worker or the service worker that handles the frame) and read only
// after the phase has been flushed, so no locking is needed. The untraced
// run fills start, ack and verdict; a traced run fills the rest, which
// are the frame's spans kept in memory.
type frameTimes struct {
	start, ack, verdict []int64

	traced                   bool
	bindStart, bindEnd       []int64 // the Bind that preceded the frame (0 = none)
	sendStart                []int64 // SendBatch call; it ends at ack
	sinkStart, sinkEnd       []int64 // the wrapping ReadingSink
	callStart, callEnd       []int64 // srv.Sink() inside the wrapper
	obsFirst, obsLast        []int64 // first Observe start, last Observe end
	obsBusy                  []int64 // summed Observe durations
	late                     []int64 // open loop: send start minus due time
	retrainStart, retrainEnd []int64 // per consumer: the RetrainFunc call
	seriesStart, seriesEnd   []int64 // per consumer: Store.Series inside it
}

func newFrameTimes(frames, consumers int, traced bool) *frameTimes {
	col := func() []int64 { return make([]int64, frames) }
	ft := &frameTimes{start: col(), ack: col(), verdict: col(), traced: traced}
	if traced {
		ft.bindStart, ft.bindEnd, ft.sendStart, ft.late = col(), col(), col(), col()
		ft.sinkStart, ft.sinkEnd, ft.callStart, ft.callEnd = col(), col(), col(), col()
		ft.obsFirst, ft.obsLast, ft.obsBusy = col(), col(), col()
		ft.retrainStart, ft.retrainEnd = make([]int64, consumers), make([]int64, consumers)
		ft.seriesStart, ft.seriesEnd = make([]int64, consumers), make([]int64, consumers)
	}
	return ft
}

// track follows one consumer's observations so the stream decorator knows
// which frame a reading closes. The service serializes observations per
// consumer, so a track is only ever touched by one goroutine at a time; it
// is shared by the decorator and its replacement after a re-train.
type track struct {
	clk       clock
	ft        *frameTimes
	n         int // observations so far
	liveStart int // observations before the current phase's frames
	frameLen  int // readings per frame
	frames    int // timed frames of this consumer
	base      int // frame index of the consumer's first timed frame
	stride    int // frame index step between its consecutive frames
}

// trackedStream decorates a consumer's stream detector. Untraced, it reads
// the clock once per frame, when the frame's last reading gets its
// verdict; traced, it also times every Observe.
type trackedStream struct {
	detect.StreamDetector
	t *track
}

func (s *trackedStream) Observe(v float64) (detect.Verdict, error) {
	f, first, last, ok := s.t.next()
	if !ok {
		return s.StreamDetector.Observe(v)
	}
	begin := s.t.begin(f, first)
	verdict, err := s.StreamDetector.Observe(v)
	s.t.end(f, begin, last)
	return verdict, err
}

func (s *trackedStream) ObserveStatus(v float64, st timeseries.ReadingStatus) (detect.Verdict, error) {
	f, first, last, ok := s.t.next()
	if !ok {
		return s.StreamDetector.ObserveStatus(v, st)
	}
	begin := s.t.begin(f, first)
	verdict, err := s.StreamDetector.ObserveStatus(v, st)
	s.t.end(f, begin, last)
	return verdict, err
}

// next advances the track by one observation and reports the frame it
// belongs to and whether it opens or closes that frame. ok is false when
// the observation needs no clock read: outside the timed frames, or
// untraced and not the frame's last reading.
func (t *track) next() (f int, first, last, ok bool) {
	r := t.n - t.liveStart
	t.n++
	if r < 0 || r/t.frameLen >= t.frames {
		return 0, false, false, false
	}
	f = t.base + r/t.frameLen*t.stride
	first, last = r%t.frameLen == 0, r%t.frameLen == t.frameLen-1
	return f, first, last, t.ft.traced || last
}

func (t *track) begin(f int, first bool) int64 {
	if !t.ft.traced {
		return 0
	}
	now := t.clk.now()
	if first {
		t.ft.obsFirst[f] = now
	}
	return now
}

func (t *track) end(f int, begin int64, last bool) {
	now := t.clk.now()
	if t.ft.traced {
		t.ft.obsBusy[f] += now - begin
		if last {
			t.ft.obsLast[f] = now
		}
	}
	if last {
		t.ft.verdict[f] = now
	}
}

// trackedRetrain wraps a RetrainFunc so the replacement stream keeps the
// consumer's track (verdict timing survives a re-train); traced, it also
// times the call, and the store wrapper times the Series read inside it.
func (fl *fleet) trackedRetrain(inner serve.RetrainFunc) serve.RetrainFunc {
	return func(id string, st serve.Store, cur detect.StreamDetector) (detect.StreamDetector, error) {
		ts, ok := cur.(*trackedStream)
		if !ok {
			return nil, fmt.Errorf("perfbench: consumer %q has an undecorated stream", id)
		}
		i := fl.index[id]
		if fl.traced {
			fl.ft.retrainStart[i] = fl.clk.now()
		}
		next, err := inner(id, st, ts.StreamDetector)
		if fl.traced {
			fl.ft.retrainEnd[i] = fl.clk.now()
		}
		if err != nil {
			return nil, err
		}
		return &trackedStream{StreamDetector: next, t: ts.t}, nil
	}
}

// tracedStore times Store.Series for the re-train spans.
type tracedStore struct {
	serve.Store
	fl *fleet
}

func (s *tracedStore) Series(id string, n int) (timeseries.Series, error) {
	fl := s.fl
	i := fl.index[id]
	fl.ft.seriesStart[i] = fl.clk.now()
	out, err := s.Store.Series(id, n)
	fl.ft.seriesEnd[i] = fl.clk.now()
	return out, err
}

// tracedSink wraps the service's sink: the wrapper's span covers the
// frame lookup and the srv.Sink() call inside it.
func (fl *fleet) tracedSink(inner ami.ReadingSink) ami.ReadingSink {
	return func(meterID string, rs []ami.BatchReading) {
		begin := fl.clk.now()
		f, ok := fl.frameOf(meterID, rs[0].Slot)
		if !ok {
			inner(meterID, rs)
			return
		}
		ft := fl.ft
		ft.sinkStart[f] = begin
		ft.callStart[f] = fl.clk.now()
		inner(meterID, rs)
		ft.callEnd[f] = fl.clk.now()
		ft.sinkEnd[f] = fl.clk.now()
	}
}

// span is one timed call at a layer boundary. Parent indexes the span's
// cause in the same list (-1 for a root); ID is the frame or consumer.
type span struct {
	name       string
	start, end int64
	parent     int
	id         int
}

// spans materializes the pass's spans: per frame a root "frame" span
// from start to verdict with its client, sink and observe children, and
// per consumer a "serve.retrain" span with its "ami.store_series" child.
func (ft *frameTimes) spans() []span {
	var out []span
	add := func(name string, start, end int64, parent, id int) int {
		out = append(out, span{name, start, end, parent, id})
		return len(out) - 1
	}
	for f := range ft.start {
		if ft.verdict[f] == 0 {
			continue
		}
		root := add("frame", ft.start[f], ft.verdict[f], -1, f)
		if ft.bindEnd[f] != 0 {
			add("ami.bind", ft.bindStart[f], ft.bindEnd[f], root, f)
		}
		add("ami.send", ft.sendStart[f], ft.ack[f], root, f)
		if ft.sinkStart[f] != 0 {
			s := add("serve.sink_wrapper", ft.sinkStart[f], ft.sinkEnd[f], root, f)
			add("serve.sink", ft.callStart[f], ft.callEnd[f], s, f)
		}
		if ft.obsFirst[f] != 0 {
			add("detect.observe", ft.obsFirst[f], ft.obsLast[f], root, f)
		}
	}
	for c := range ft.retrainStart {
		if ft.retrainEnd[c] == 0 {
			continue
		}
		r := add("serve.retrain", ft.retrainStart[c], ft.retrainEnd[c], -1, c)
		if ft.seriesEnd[c] != 0 {
			add("ami.store_series", ft.seriesStart[c], ft.seriesEnd[c], r, c)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, iv := range ivs {
			if iv[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByName groups self times (in microseconds) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.name] = append(out[s.name], float64(self[i])/1e3)
	}
	return out
}

// noteSelfTimes prints each layer's total self time over spans, by span
// name.
func noteSelfTimes(rep *report, spans []span) {
	for name, us := range selfByName(spans) {
		rep.note("self_ms."+name, sum(us)/1e3, "ms")
	}
}

// writeSpans writes spans as gzipped CSV: name, start and end in ns since
// the pass began, parent row (-1 = root), and frame or consumer id.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,start_ns,end_ns,parent,id")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.id)
	}
	werr := bw.Flush()
	zerr := zw.Close()
	cerr := f.Close()
	for _, e := range []error{werr, zerr, cerr} {
		if e != nil {
			return fmt.Errorf("perfbench: writing spans: %w", e)
		}
	}
	return nil
}
