package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by stats.Percentile;
// an empty slice yields 0, so a layer a workload does not run reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, q*100)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest value: one
// outlier at either end does not move it, and it averages the rest. For
// up to four values it is the median.
func trimmedMean(xs []float64) float64 {
	if len(xs) <= 4 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sum(s[1:len(s)-1]) / float64(len(s)-2)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB collects garbage twice and returns the live heap in MiB: the
// state the system holds at that moment.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// goStats is the Go runtime's cumulative allocation and GC accounting.
type goStats struct {
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{ms.TotalAlloc, ms.Mallocs, ms.NumGC, time.Duration(ms.PauseTotalNs)}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

// usage measures one timed phase: wall time, process CPU and Go runtime
// deltas between start and stop.
type usage struct {
	t0   time.Time
	cpu0 float64
	go0  goStats

	wall, cpu float64
	gost      goStats
}

func startUsage() *usage {
	return &usage{go0: readGoStats(), cpu0: cpuSeconds(), t0: time.Now()}
}

func (p *usage) stop() {
	p.wall = time.Since(p.t0).Seconds()
	p.cpu = cpuSeconds() - p.cpu0
	p.gost = readGoStats().sub(p.go0)
}

// filesystemName names the filesystem holding dir (the WAL's medium).
func filesystemName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
