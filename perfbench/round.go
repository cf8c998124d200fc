package main

import (
	"fmt"
	"runtime"
	"time"

	"omxsim/internal/cluster"
	"omxsim/internal/mpi"
	"omxsim/internal/report"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
)

// cell is one cluster run of a round: the configuration cluster.New gets,
// the rank body, and the read-out of the finished cluster.
type cell struct {
	name string
	cfg  cluster.Config
	body func(c *mpi.Comm)
	// finish folds the cell's outputs and correctness checks into out
	// after Run returns and before Close.
	finish func(cl *cluster.Cluster, out *outcome)
	// traceCap sizes the trace ring of the process on node n, so that a
	// traced round keeps every event it emits.
	traceCap func(node int) int
	// probe marks a cell whose inputs do not depend on the seed and whose
	// failed operations are a known fault of the program: its operations
	// are counted and checked, but its latencies, payload and simulated
	// time stay out of the simulated metrics.
	probe bool
}

// outcome is what a round's cells produce on the simulated clock, plus
// the operation accounting and every failed check.
type outcome struct {
	// lat holds the completion latency of every timed operation in
	// simulated ns; raw holds the same samples exactly where the
	// benchmark saw each one (kv reports only its histograms).
	lat       report.Hist
	raw       []int64
	payload   int64        // payload bytes the timed operations delivered
	simTime   sim.Duration // of the cells the simulated metrics cover
	attempted int
	failed    int
	// probeFailed is the share of failed that probe cells account for.
	probeFailed int
	errs        []string
	layers      map[string]float64
	kv          kvCounts
}

type kvCounts struct {
	okOps, failovers int
	get, put         report.Hist
}

// record adds one timed operation's latency.
func (o *outcome) record(lat sim.Duration) {
	o.lat.Record(int64(lat))
	o.raw = append(o.raw, int64(lat))
}

func (o *outcome) errorf(format string, args ...any) {
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// options select the variant of a workload a round runs.
type options struct {
	seed int64
	// short runs a reduced schedule (the benchmark's own test).
	short bool
	// shards overrides the workload's engine shard count when positive.
	shards int
	// traced attaches one trace.Recorder per process and profiles the host.
	traced bool
}

// workload generates one round's cells from the options. Generation is
// part of set-up: everything a rank body reads (sizes, byte patterns,
// schedules) exists before cluster.New is called.
type workload struct {
	name string
	plan func(o options) []cell
}

var workloads = []workload{
	{"pingpong-mix", planPingpong},
	{"kv-fleet", planKVFleet},
	{"reclaim-churn", planReclaim},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// round is one full pass over a workload's cells.
type round struct {
	out     outcome
	setup   time.Duration // input generation + every cluster.New
	build   time.Duration // cluster.New alone
	close   time.Duration
	host    hostSample // summed over cells' Run calls
	events  uint64     // all events fired, daemons included
	spans   *spanStats // traced rounds only
	profile *hostProfile
	// steal is the share of the machine's CPU time the hypervisor gave
	// to other guests during the round, or -1 where it cannot be read.
	steal float64
	// stealBusy is the same stolen time as a share of the time the
	// machine's vCPUs had work, or -1.
	stealBusy float64
}

// net is the host time d of the round less the share of it the
// hypervisor stole, in seconds: while the vCPUs had work, a share
// stealBusy of their time went to other guests and the round made no
// progress in it, so on a machine without steal d would have taken
// d·(1-stealBusy). Where steal cannot be read, d is returned as it is.
func (r *round) net(d time.Duration) float64 {
	if r.stealBusy > 0 && r.stealBusy < 1 {
		return d.Seconds() * (1 - r.stealBusy)
	}
	return d.Seconds()
}

// runRound executes one round. A panic inside the simulation (a deadlock
// or a protocol invariant) is reported as a failed check, not a crash.
func runRound(w workload, o options) (r round) {
	r.out.layers = map[string]float64{}
	defer func() {
		if p := recover(); p != nil {
			r.out.errorf("panic: %v", p)
		}
	}()
	// Start every set-up from a collected heap, so the garbage of the
	// previous round does not land in this one's set-up time.
	runtime.GC()
	t0, ok0 := cpuTicks()
	defer func() {
		t1, ok1 := cpuTicks()
		r.steal, r.stealBusy = shares(t0, t1, ok0 && ok1)
	}()
	start := time.Now()
	cells := w.plan(o)
	r.setup = time.Since(start)
	if o.traced {
		r.spans = newSpanStats()
		r.profile = &hostProfile{}
	}
	for _, c := range cells {
		cfg := c.cfg
		var recs []*trace.Recorder
		if o.traced {
			cfg.OnBuild = append(cfg.OnBuild, func(cl *cluster.Cluster) { recs = attachRecorders(cl, c.traceCap) })
		}
		t := time.Now()
		cl, err := cluster.New(cfg)
		d := time.Since(t)
		r.setup += d
		r.build += d
		if err != nil {
			r.out.errorf("%s: cluster.New: %v", c.name, err)
			return r
		}
		runtime.GC()
		var prof *profileRun
		if o.traced {
			prof = startProfile()
		}
		hs := measureHost(func() { cl.Run(c.body) })
		if prof != nil {
			r.profile.add(prof.stop())
		}
		r.host.add(hs)
		r.events += cl.EventsFired()
		failed := r.out.failed
		c.finish(cl, &r.out)
		if c.probe {
			r.out.probeFailed += r.out.failed - failed
		} else {
			r.out.simTime += sim.Duration(cl.Now())
		}
		addLayers(r.out.layers, cl)
		if o.traced {
			r.spans.collect(recs)
		}
		t = time.Now()
		leaked := cl.Close()
		r.close += time.Since(t)
		if leaked != 0 {
			r.out.errorf("%s: Cluster.Close reports %d leaked pinned pages", c.name, leaked)
		}
		checkPinLedger(cl, c.name, &r.out)
	}
	checkHist("latency", &r.out.lat, &r.out)
	finishLayers(r.out.layers, &r.out)
	return r
}
