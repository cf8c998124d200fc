// Command perfbench is the simulator's end-to-end benchmark. It runs one
// workload for a fixed host time as repeated whole rounds (each round
// builds fresh clusters from the seeded inputs, runs them and checks
// their outputs) and prints one JSON object as its last line:
//
//	perfbench --workload pingpong-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// every other round is traced and profiled and the metrics are the
// per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"omxsim/internal/sim"
)

func main() {
	name := flag.String("workload", "", "workload to run: pingpong-mix, kv-fleet or reclaim-churn")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		flag.Usage()
		os.Exit(2)
	}
	res := measure(w, options{seed: *seed}, time.Duration(*seconds)*time.Second, *traced == 1)
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	printSummary(os.Stderr, w.name, res)
	line, err := json.Marshal(res.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.errs) > 0 {
		os.Exit(1)
	}
}

// measurement is a run's rounds reduced to its metrics.
type measurement struct {
	rounds      int
	attempted   int
	failed      int
	probeFailed int
	samples     uint64
	walls       []float64 // untraced rounds' wall time, in run order
	netWalls    []float64 // the same net of steal (their wall_s)
	steals      []float64 // untraced rounds' steal share, in run order
	stealsBusy  []float64 // the same as a share of the busy time
	cpus        []float64 // untraced rounds' cpu_s, in run order
	steal       float64   // the whole run's steal share, -1 if unknown
	stolen      int       // rounds above maxSteal
	resolved    bool      // false if rounds above maxSteal had to stay in
	errs        []string
	endToEnd    map[string]float64
	perLayer    map[string]float64
	traced      bool
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (m *measurement) result() resultOut {
	r := resultOut{Correct: len(m.errs) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricOut{}}
	specs, vals := endToEndMetrics, m.endToEnd
	if m.traced {
		specs, vals = perLayerMetrics(), m.perLayer
	}
	for _, s := range specs {
		v := vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	return r
}

// measure runs whole rounds of w until budget has passed. With traced
// set, rounds alternate untraced and traced, and end on a traced one; the
// untraced rounds give the baseline the tracing overhead is taken
// against.
func measure(w workload, o options, budget time.Duration, traced bool) *measurement {
	m := &measurement{traced: traced}
	var plain, tr []round
	t0, ok0 := cpuTicks()
	start := time.Now()
	for i := 0; ; i++ {
		ro := o
		ro.traced = traced && i%2 == 1
		r := runRound(w, ro)
		m.rounds++
		m.attempted += r.out.attempted
		m.failed += r.out.failed
		m.probeFailed += r.out.probeFailed
		for _, e := range r.out.errs {
			m.errs = append(m.errs, fmt.Sprintf("round %d: %s", i, e))
		}
		if len(plain) > 0 {
			if d := sameSim(&plain[0].out, &r.out); d != "" {
				m.errs = append(m.errs, fmt.Sprintf("round %d: simulated outputs differ from round 0 under the same seed: %s", i, d))
			}
		}
		if ro.traced {
			if r.profile != nil && r.profile.err != nil {
				m.errs = append(m.errs, fmt.Sprintf("round %d: host profile: %v", i, r.profile.err))
			}
			tr = append(tr, r)
		} else {
			plain = append(plain, r)
		}
		if len(m.errs) > 0 || (time.Since(start) >= budget && (!traced || ro.traced)) {
			break
		}
	}
	t1, ok1 := cpuTicks()
	m.steal, _ = shares(t0, t1, ok0 && ok1)
	for _, r := range plain {
		m.walls = append(m.walls, r.host.wall.Seconds())
		m.netWalls = append(m.netWalls, r.net(r.host.wall))
		m.steals = append(m.steals, r.steal)
		m.cpus = append(m.cpus, r.host.cpu.Seconds())
		m.stealsBusy = append(m.stealsBusy, r.stealBusy)
	}
	// The first round grows the Go heap from nothing, faulting its pages
	// in from the OS; host medians leave it out once there are others.
	warm := plain
	if len(plain) > 1 {
		warm = plain[1:]
	}
	calm, okPlain := unstolen(warm)
	calmTr, okTr := unstolen(tr)
	m.resolved = okPlain && okTr
	for _, rs := range [][]round{warm, tr} {
		for _, r := range rs {
			if r.steal > maxSteal {
				m.stolen++
			}
		}
	}
	m.endToEnd = endToEnd(warm, calm)
	m.samples = plain[0].out.lat.Count()
	if traced && len(tr) > 0 {
		m.perLayer = perLayer(calm, calmTr)
		m.perLayer["host.steal_share"] = m.steal
	}
	return m
}

// maxSteal is the share of the machine's CPU time the hypervisor may give
// to other guests during a round before the round counts as run on a
// slower machine.
const maxSteal = 0.05

// unstolen leaves out the rounds that ran during steal, in run order: it
// keeps every round at or below maxSteal, and at least the least-stolen
// half, so that a run in which steal came and went still gives its host
// medians from the calmest rounds rather than from all of them. It
// reports false if it had to keep a round above maxSteal.
func unstolen(rs []round) ([]round, bool) {
	if len(rs) == 0 {
		return rs, true
	}
	by := make([]float64, len(rs))
	for i, r := range rs {
		by[i] = r.steal
	}
	sort.Float64s(by)
	limit := by[(len(by)-1)/2]
	if limit < maxSteal {
		limit = maxSteal
	}
	var keep []round
	for _, r := range rs {
		if r.steal <= limit {
			keep = append(keep, r)
		}
	}
	return keep, limit <= maxSteal
}

// sameSim compares what two rounds of one seed produced on the simulated
// clock; the engine promises it repeats exactly.
func sameSim(a, b *outcome) string {
	switch {
	case a.simTime != b.simTime:
		return fmt.Sprintf("simulated time %v vs %v", a.simTime, b.simTime)
	case a.payload != b.payload:
		return fmt.Sprintf("payload %d vs %d", a.payload, b.payload)
	case a.attempted != b.attempted || a.failed != b.failed:
		return fmt.Sprintf("%d of %d operations failed vs %d of %d", a.failed, a.attempted, b.failed, b.attempted)
	case a.lat.Mean() != b.lat.Mean() || a.lat.Count() != b.lat.Count() || a.lat.Max() != b.lat.Max() ||
		a.latencyUS(0.5) != b.latencyUS(0.5) || a.latencyUS(0.99) != b.latencyUS(0.99):
		return fmt.Sprintf("latency %v vs %v", a.lat.String(), b.lat.String())
	}
	for k, v := range a.layers {
		if b.layers[k] != v {
			return fmt.Sprintf("%s %g vs %g", k, v, b.layers[k])
		}
	}
	return ""
}

type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_MB", "MB"},
	{"allocs_M", "M"},
	{"peak_heap_MB", "MB"},
	{"sim_MiBps", "MiB/s"},
	{"sim_p50_us", "us"},
	{"sim_p99_us", "us"},
}

// endToEnd reduces a run's untraced rounds after the warm-up: host times
// and the peak live heap over the calm ones, which steal spared (a
// collection's mark phase that loses its vCPU to steal marks live more of
// what is allocated meanwhile); allocation counts, which steal does not
// touch, over all of them.
func endToEnd(warm, calm []round) map[string]float64 {
	med := func(rs []round, f func(r *round) float64) float64 {
		v := make([]float64, len(rs))
		for i := range rs {
			v[i] = f(&rs[i])
		}
		return median(v)
	}
	out := &warm[0].out
	return map[string]float64{
		"setup_s":      med(calm, func(r *round) float64 { return r.net(r.setup) }),
		"wall_s":       med(calm, func(r *round) float64 { return r.net(r.host.wall) }),
		"cpu_s":        med(calm, func(r *round) float64 { return r.host.cpu.Seconds() }),
		"alloc_MB":     med(warm, func(r *round) float64 { return float64(r.host.allocBytes) / 1e6 }),
		"allocs_M":     med(warm, func(r *round) float64 { return float64(r.host.allocObjs) / 1e6 }),
		"peak_heap_MB": med(calm, func(r *round) float64 { return float64(r.host.peakHeap) / 1e6 }),
		"sim_MiBps":    float64(out.payload) / (float64(out.simTime) / float64(sim.Second)) / (1 << 20),
		"sim_p50_us":   out.latencyUS(0.50),
		"sim_p99_us":   out.latencyUS(0.99),
	}
}

// perLayerMetrics lists the per-layer metrics in output order.
func perLayerMetrics() []metricSpec {
	specs := []metricSpec{
		{"sim.events", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"ethernet.frames", "count"},
		{"ethernet.bytes", "B"},
		{"ethernet.drops", "count"},
		{"omx.pull_replies", "count"},
		{"omx.overlap_misses", "count"},
		{"omx.rereqs", "count"},
		{"omx.retransmits", "count"},
		{"omx.rndv_to_complete_p50_us", "us"},
		{"omx.rndv_to_complete_p99_us", "us"},
		{"core.pin_ops", "count"},
		{"core.pages_pinned", "count"},
		{"core.repins", "count"},
		{"core.pin_failures", "count"},
		{"core.pin_wait_p50_us", "us"},
		{"core.pin_wait_p99_us", "us"},
		{"core.cache_hits", "count"},
		{"core.cache_misses", "count"},
		{"core.cache_hit_ratio", "ratio"},
		{"core.cache_invalidations", "count"},
		{"core.odp_faults", "count"},
		{"core.odp_fault_pages", "count"},
		{"vm.pgscan", "count"},
		{"vm.pgsteal", "count"},
		{"vm.steal_ratio", "ratio"},
		{"vm.pinned_resists", "count"},
		{"vm.kswapd_runs", "count"},
		{"vm.direct_stalls", "count"},
		{"vm.swap_ins", "count"},
		{"cpu.busy_bh_us", "us"},
		{"cpu.busy_kernel_us", "us"},
		{"cpu.busy_user_us", "us"},
		{"cpu.bh_util", "ratio"},
		{"kv.ops_ok", "count"},
		{"kv.failovers", "count"},
		{"kv.get_p99_us", "us"},
		{"kv.put_p99_us", "us"},
		{"cluster.build_s", "s"},
		{"cluster.run_s", "s"},
		{"cluster.close_s", "s"},
	}
	for _, mod := range hostModules {
		specs = append(specs, metricSpec{"host." + mod + ".cpu_s", "s"}, metricSpec{"host." + mod + ".alloc_MB", "MB"})
	}
	specs = append(specs, metricSpec{"host.gc.cpu_s", "s"}, metricSpec{"host.steal_share", "ratio"})
	for _, k := range tracedKinds {
		specs = append(specs, metricSpec{"trace." + k.String(), "count"})
	}
	return append(specs,
		metricSpec{"trace.dropped", "count"},
		metricSpec{"trace.wall_s", "s"},
		metricSpec{"trace.overhead_s", "s"},
	)
}

// perLayer reduces a traced run: counts from the program's stats (equal
// in every round), spans and host attribution from the traced rounds, host
// times as medians.
func perLayer(plain, tr []round) map[string]float64 {
	m := map[string]float64{}
	for k, v := range plain[0].out.layers {
		m[k] = v
	}
	med := func(rs []round, f func(r *round) float64) float64 {
		v := make([]float64, len(rs))
		for i := range rs {
			v[i] = f(&rs[i])
		}
		return median(v)
	}
	wall := med(plain, func(r *round) float64 { return r.net(r.host.wall) })
	m["sim.host_ns_per_event"] = med(plain, func(r *round) float64 {
		return 1e9 * r.net(r.host.wall) / float64(r.events)
	})
	m["cluster.build_s"] = med(plain, func(r *round) float64 { return r.build.Seconds() })
	m["cluster.run_s"] = med(plain, func(r *round) float64 { return r.host.wall.Seconds() })
	m["cluster.close_s"] = med(plain, func(r *round) float64 { return r.close.Seconds() })

	last := tr[len(tr)-1]
	s := last.spans
	m["omx.rndv_to_complete_p50_us"] = s.rndv.QuantileUS(0.5)
	m["omx.rndv_to_complete_p99_us"] = s.rndv.QuantileUS(0.99)
	m["core.pin_wait_p50_us"] = s.pinWait.QuantileUS(0.5)
	m["core.pin_wait_p99_us"] = s.pinWait.QuantileUS(0.99)
	for _, k := range tracedKinds {
		m["trace."+k.String()] = float64(s.counts[k])
	}
	m["trace.dropped"] = float64(s.dropped)
	m["trace.wall_s"] = med(tr, func(r *round) float64 { return r.net(r.host.wall) })
	m["trace.overhead_s"] = m["trace.wall_s"] - wall

	var hp hostProfile
	for i := range tr {
		hp.add(*tr[i].profile)
	}
	n := float64(len(tr))
	for _, mod := range hostModules {
		m["host."+mod+".cpu_s"] = hp.cpu[mod] / n
		m["host."+mod+".alloc_MB"] = hp.alloc[mod] / n / 1e6
	}
	m["host.gc.cpu_s"] = hp.gc / n
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func printSummary(f *os.File, name string, m *measurement) {
	fmt.Fprintf(f, "perfbench %s: %d rounds, %d ops attempted, %d failed (%d in the fixed-input probe), %d latency samples per round\n",
		name, m.rounds, m.attempted, m.failed, m.probeFailed, m.samples)
	fmt.Fprintf(f, "  untraced rounds' wall time: %.3f\n", m.walls)
	fmt.Fprintf(f, "  untraced rounds' wall_s (net of steal): %.3f\n", m.netWalls)
	fmt.Fprintf(f, "  untraced rounds' cpu_s: %.3f\n", m.cpus)
	fmt.Fprintf(f, "  untraced rounds' steal share of busy time: %.3f\n", m.stealsBusy)
	fmt.Fprintf(f, "  untraced rounds' steal share: %.3f; whole run %.3f; %d timed rounds above %.2f",
		m.steals, m.steal, m.stolen, maxSteal)
	if m.resolved {
		fmt.Fprintln(f, ", left out of the host medians")
	} else {
		fmt.Fprintln(f, ", the least-stolen half kept in the host medians")
		fmt.Fprintf(f, "  HOST TIMES UNRESOLVED: half of the rounds or more ran while the hypervisor stole more than %.0f%% of the CPU time;\n"+
			"  this run's cpu_s may read high (setup_s and wall_s are net of steal)\n", 100*maxSteal)
	}
	specs, vals := endToEndMetrics, m.endToEnd
	if m.traced {
		specs, vals = perLayerMetrics(), m.perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", s.name, vals[s.name], s.unit)
	}
}
