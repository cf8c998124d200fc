package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// hostModules are the program's layers the traced run splits host time
// and allocation across. "bench" is this benchmark's own code (inputs
// read back and compared), "other" the Go runtime's scheduler and
// everything else outside the program.
var hostModules = []string{"sim", "vm", "core", "omx", "ethernet", "cpu", "mpi", "kv", "report", "bench", "other"}

// hostProfile is the traced run's host attribution: CPU seconds and heap
// bytes allocated per module, and CPU seconds spent collecting garbage.
type hostProfile struct {
	cpu     map[string]float64 // seconds
	alloc   map[string]float64 // bytes
	gc      float64            // seconds
	samples int
	err     error
}

func (h *hostProfile) add(o hostProfile) {
	if h.cpu == nil {
		h.cpu, h.alloc = map[string]float64{}, map[string]float64{}
	}
	for k, v := range o.cpu {
		h.cpu[k] += v
	}
	for k, v := range o.alloc {
		h.alloc[k] += v
	}
	h.gc += o.gc
	h.samples += o.samples
	if h.err == nil {
		h.err = o.err
	}
}

// profileRun is a CPU profile and an allocation-profile snapshot taken
// around one Run.
type profileRun struct {
	buf     bytes.Buffer
	started bool
	before  map[[32]uintptr]runtime.MemProfileRecord
}

func startProfile() *profileRun {
	p := &profileRun{before: memProfile()}
	p.started = pprof.StartCPUProfile(&p.buf) == nil
	return p
}

func (p *profileRun) stop() hostProfile {
	h := hostProfile{cpu: map[string]float64{}, alloc: map[string]float64{}}
	if p.started {
		pprof.StopCPUProfile()
		h.err = h.addCPU(p.buf.Bytes())
	} else {
		h.err = errors.New("CPU profiler busy")
	}
	rate := float64(runtime.MemProfileRate)
	for k, r := range memProfile() {
		b := r.AllocBytes
		n := r.AllocObjects
		if o, ok := p.before[k]; ok {
			b -= o.AllocBytes
			n -= o.AllocObjects
		}
		if n <= 0 {
			continue
		}
		h.alloc[moduleOfStack(r.Stack())] += float64(b) * heapScale(float64(b)/float64(n), rate)
	}
	return h
}

// heapScale undoes the allocation profiler's sampling: an allocation of
// avg bytes is sampled with probability 1-exp(-avg/rate), as pprof scales
// heap profiles.
func heapScale(avg, rate float64) float64 {
	if rate <= 1 || avg <= 0 {
		return 1
	}
	return 1 / (1 - math.Exp(-avg/rate))
}

// memProfile snapshots the cumulative allocation profile by the first 32
// frames of each stack, the ones MemProfileRecord keeps; records whose
// deeper frames differ are summed. The profile lags by up to two
// collections, so it collects twice first.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); ; {
		// Records may appear between the two calls; retry with room.
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		sum := out[r.Stack0]
		sum.Stack0 = r.Stack0
		sum.AllocBytes += r.AllocBytes
		sum.AllocObjects += r.AllocObjects
		out[r.Stack0] = sum
	}
	return out
}

func moduleOfStack(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	var names []string
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			break
		}
	}
	return moduleOf(names)
}

// moduleOf attributes a stack, leaf first, to the innermost frame that
// belongs to the program or to this benchmark, so time a runtime helper
// (memmove, map access, allocation) spends on a layer's behalf counts to
// that layer.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "omxsim/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			for _, m := range hostModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "omxsim/perfbench.") {
			return "bench"
		}
	}
	return "other"
}

// isGC reports whether a stack is the collector's: a background mark
// worker, a mutator's mark assist, or sweeping.
func isGC(stack []string) bool {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"),
			strings.HasPrefix(fn, "runtime.markroot"),
			fn == "runtime.bgsweep", fn == "runtime.sweepone",
			fn == "runtime.bgscavenge", fn == "runtime.scanobject":
			return true
		}
	}
	return false
}

// addCPU parses a gzipped pprof CPU profile and adds each sample's CPU
// time to the module of its stack, or to gc.
func (h *hostProfile) addCPU(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		sec := float64(s.value) / 1e9
		h.samples++
		if isGC(stack) {
			h.gc += sec
			continue
		}
		h.cpu[moduleOf(stack)] += sec
	}
	return nil
}

// profile is the slice of the pprof profile.proto message the
// attribution reads: samples (stack and CPU nanoseconds), and each
// location's function names, inlined frames innermost first.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string
}

type sample struct {
	locs  []uint64
	value int64
}

// parseProfile decodes the fields of profile.proto the attribution needs:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	locLines := map[uint64][]uint64{}
	funcName := map[uint64]uint64{}
	var strs []string
	p := &profile{locFuncs: map[uint64][]string{}}
	err := walkFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []uint64
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					vals = appendPacked(vals, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds].
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var fn uint64
					if err := walkFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					}); err != nil {
						return err
					}
					fns = append(fns, fn)
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5:
			var id, name uint64
			err := walkFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLines {
		for _, f := range fns {
			if i := funcName[f]; i < uint64(len(strs)) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}

var errProto = errors.New("malformed profile")

// walkFields calls fn for each field of a protobuf message: varints with
// their value, length-delimited fields with their bytes. Fixed-width
// fields, which profile.proto does not use, are skipped.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrives either as one
// unpacked value (data nil) or packed into data.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
