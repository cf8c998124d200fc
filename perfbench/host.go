package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// hostSample is what one timed Run costs the host.
type hostSample struct {
	wall, cpu  time.Duration
	allocBytes uint64
	allocObjs  uint64
	peakHeap   uint64 // peak live heap, bytes
}

func (h *hostSample) add(o hostSample) {
	h.wall += o.wall
	h.cpu += o.cpu
	h.allocBytes += o.allocBytes
	h.allocObjs += o.allocObjs
	if o.peakHeap > h.peakHeap {
		h.peakHeap = o.peakHeap
	}
}

// measureHost times f on the wall and CPU clocks and counts the heap
// bytes and objects it allocates. The peak live heap is the largest heap
// marked live by any collection that ends while f runs, or by the forced
// collections just before and after it; the caller has already collected
// the set-up garbage.
func measureHost(f func()) hostSample {
	var w gcWatch
	w.peak.Store(liveHeap())
	w.arm()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	w.stop.Store(true)
	w.observe(liveHeap())
	return hostSample{
		wall:       wall,
		cpu:        cpu,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		allocObjs:  ms1.Mallocs - ms0.Mallocs,
		peakHeap:   w.peak.Load(),
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ticks are the machine's CPU time counters from /proc/stat, in clock
// ticks: the time the hypervisor ran other guests while this machine's
// vCPUs were ready to run (steal), the time the vCPUs had work (busy:
// everything but idle and iowait, steal included), and all of it.
type ticks struct{ steal, busy, total uint64 }

// cpuTicks reads the counters; ok is false where they cannot be read.
func cpuTicks() (t ticks, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return t, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return t, false
	}
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user time.
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	var v [9]uint64
	for i := 1; i <= 8; i++ {
		if v[i], err = strconv.ParseUint(fields[i], 10, 64); err != nil {
			return t, false
		}
		t.total += v[i]
	}
	t.steal = v[8]
	t.busy = t.total - v[4] - v[5]
	return t, true
}

// shares returns the steal share of all CPU time and of the busy time
// between two readings, or -1 for each where it cannot be told.
func shares(a, b ticks, ok bool) (ofTotal, ofBusy float64) {
	ofTotal, ofBusy = -1, -1
	if !ok || b.total <= a.total {
		return
	}
	st := float64(b.steal - a.steal)
	ofTotal = st / float64(b.total-a.total)
	if b.busy > a.busy {
		ofBusy = st / float64(b.busy-a.busy)
	}
	return
}

// liveHeap is the heap the most recent collection marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// gcWatch records the live heap after every collection through a
// finalizer that re-arms itself, so no collection is missed however
// often they run.
type gcWatch struct {
	peak atomic.Uint64
	stop atomic.Bool
}

// sentinel holds a pointer so that it is not a tiny allocation, whose
// finalizer may never run.
type sentinel struct{ _ *int }

func (w *gcWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		w.observe(liveHeap())
		if !w.stop.Load() {
			w.arm()
		}
	})
}

func (w *gcWatch) observe(v uint64) {
	for {
		p := w.peak.Load()
		if v <= p || w.peak.CompareAndSwap(p, v) {
			return
		}
	}
}
