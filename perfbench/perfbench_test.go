package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// TestWorkloadsPass runs each workload's reduced schedule once, untraced
// and traced, and holds it to every correctness check with no failed
// operation outside the fixed-input probe.
func TestWorkloadsPass(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := runRound(w, options{seed: 1, short: true, traced: traced})
			if len(r.out.errs) > 0 || r.out.attempted == 0 || r.out.failed != r.out.probeFailed {
				t.Fatalf("%s traced=%v: %d attempted, %d failed (%d in the probe), errors %q",
					w.name, traced, r.out.attempted, r.out.failed, r.out.probeFailed, r.out.errs)
			}
			if traced {
				if r.spans.dropped != 0 || r.spans.rndv.Count() == 0 {
					t.Errorf("%s: traced round dropped %d events, paired %d messages",
						w.name, r.spans.dropped, r.spans.rndv.Count())
				}
				if r.profile.err != nil {
					t.Errorf("%s: profile: %v", w.name, r.profile.err)
				}
			}
		}
	}
}

// TestKVFleetShardInvariance holds kv-fleet's simulated outputs and
// per-layer counts identical at 1 and 2 engine shards, the invariance the
// parallel engine promises.
func TestKVFleetShardInvariance(t *testing.T) {
	w, _ := workloadByName("kv-fleet")
	one := runRound(w, options{seed: 3, shards: 1})
	two := runRound(w, options{seed: 3, shards: 2})
	for _, r := range []round{one, two} {
		if len(r.out.errs) > 0 {
			t.Fatal(r.out.errs)
		}
	}
	if d := sameSim(&one.out, &two.out); d != "" {
		t.Fatalf("1 vs 2 shards: %s", d)
	}
	if len(one.out.layers) != len(two.out.layers) {
		t.Fatalf("layer sets differ: %d vs %d", len(one.out.layers), len(two.out.layers))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if a, b := one.out.lat.Quantile(q), two.out.lat.Quantile(q); a != b {
			t.Errorf("p%g: %d vs %d ns", q*100, a, b)
		}
	}
}

// TestSecondSeed checks that another seed yields other inputs, and so
// other outputs, that pass the same checks, while the fixed-input probe
// fails the same operations on both.
func TestSecondSeed(t *testing.T) {
	for _, w := range workloads {
		a := runRound(w, options{seed: 1, short: true})
		b := runRound(w, options{seed: 2, short: true})
		if len(a.out.errs)+len(b.out.errs) > 0 || a.out.failed != a.out.probeFailed || b.out.failed != b.out.probeFailed {
			t.Fatalf("%s: errors %q %q", w.name, a.out.errs, b.out.errs)
		}
		if a.out.probeFailed != b.out.probeFailed {
			t.Errorf("%s: the probe failed %d operations on seed 1 and %d on seed 2", w.name, a.out.probeFailed, b.out.probeFailed)
		}
		if sameSim(&a.out, &b.out) == "" {
			t.Errorf("%s: seeds 1 and 2 produced identical simulated outputs", w.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics())
}

// TestStealHandling checks that host times are taken net of steal and
// from the calmest rounds: every round at or below maxSteal, and at
// least the least-stolen half.
func TestStealHandling(t *testing.T) {
	r := round{stealBusy: 0.2}
	if got := r.net(5 * time.Second); math.Abs(got-4) > 1e-12 {
		t.Errorf("5 s with a fifth of the busy time stolen: net %v s, want 4", got)
	}
	r.stealBusy = -1
	if got := r.net(5 * time.Second); got != 5 {
		t.Errorf("steal unknown: net %v s, want 5", got)
	}
	rounds := func(steals ...float64) []round {
		rs := make([]round, len(steals))
		for i, s := range steals {
			rs[i] = round{steal: s, events: uint64(i)}
		}
		return rs
	}
	order := func(rs []round) (v []uint64) {
		for _, r := range rs {
			v = append(v, r.events)
		}
		return v
	}
	for _, c := range []struct {
		steals []float64
		keep   []uint64
		ok     bool
	}{
		{[]float64{0.01, 0.2, 0.03, 0.04}, []uint64{0, 2, 3}, true},
		{[]float64{0.3, 0.2, 0.01, 0.1, 0.25}, []uint64{1, 2, 3}, false},
		{[]float64{0.3, 0.2, 0.01, 0.1}, []uint64{2, 3}, false},
		{[]float64{0.3}, []uint64{0}, false},
	} {
		keep, ok := unstolen(rounds(c.steals...))
		if fmt.Sprint(order(keep)) != fmt.Sprint(c.keep) || ok != c.ok {
			t.Errorf("steals %v: kept rounds %v (resolved %v), want %v (%v)", c.steals, order(keep), ok, c.keep, c.ok)
		}
	}
}

// TestProfileAttribution checks the host attribution end to end: CPU
// time burnt and heap allocated in this package are charged to the
// benchmark.
func TestProfileAttribution(t *testing.T) {
	p := startProfile()
	if !p.started {
		t.Skip("CPU profiler in use")
	}
	burn(300 * time.Millisecond)
	const allocated = 64 << 20
	churnHeap(allocated)
	h := p.stop()
	if h.err != nil {
		t.Fatal(h.err)
	}
	if h.samples == 0 || h.cpu["bench"] < 0.1 {
		t.Fatalf("%d samples, bench %.3fs of %v", h.samples, h.cpu["bench"], h.cpu)
	}
	if got := h.alloc["bench"]; got < 0.8*allocated || got > 1.25*allocated {
		t.Fatalf("bench allocated %.0f bytes, attributed %.0f", float64(allocated), got)
	}
}

var (
	sink64  uint64
	sinkBuf []byte
)

func churnHeap(n int) {
	for i := 0; i < n; i += 64 << 10 {
		sinkBuf = make([]byte, 64<<10)
	}
}

func burn(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink64 = x
}
