package main

import (
	"bytes"
	"math"
	"math/rand"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// pingpong-mix: a closed loop of round trips between two single-rank
// nodes under overlapped pinning with no registration cache, so every
// rendezvous declares, pins overlapped with the pull, and unpins.
const (
	ppMinSize = 4 << 10
	ppMaxSize = 4 << 20
	ppTrips   = 1200 // ≥ 1000, so at least ten round trips lie beyond the p99
	ppShort   = 120
)

type pingpong struct {
	sizes   []int
	offs    []int
	pool    []byte
	scratch [2][]byte // per-rank read-back chunks
	failed  []bool
	rtt     []sim.Duration
}

// logUniformSizes draws n sizes log-uniformly from [lo, hi], stratified:
// the i'th size falls in the i'th of n equal slices of the log range, and
// the order is a seeded shuffle. Every seed so gets the same size mix
// up to jitter within each slice, and different messages, offsets and
// order.
func logUniformSizes(rng *rand.Rand, n, lo, hi int) []int {
	sizes := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for i := range sizes {
		f := (float64(i) + rng.Float64()) / float64(n)
		sizes[i] = int(float64(lo) * math.Exp(f*span))
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// patternPool is a seeded byte pool that messages take windows of, so
// every message carries different bytes without a buffer per message.
func patternPool(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func planPingpong(o options) []cell {
	rng := rand.New(rand.NewSource(o.seed))
	n := ppTrips
	if o.short {
		n = ppShort
	}
	pp := &pingpong{
		sizes:  logUniformSizes(rng, n, ppMinSize, ppMaxSize),
		pool:   patternPool(rng, ppMaxSize+ppMaxSize/4),
		failed: make([]bool, n),
		rtt:    make([]sim.Duration, n),
	}
	pp.offs = make([]int, n)
	for i, s := range pp.sizes {
		pp.offs[i] = rng.Intn(len(pp.pool) - s + 1)
	}
	for r := range pp.scratch {
		pp.scratch[r] = make([]byte, checkChunk)
	}
	return []cell{{
		name: "overlapped",
		cfg: cluster.Config{
			Nodes: 2,
			OMX:   omx.DefaultConfig(core.Overlapped, false),
			Seed:  o.seed,
		},
		body:     pp.body,
		finish:   pp.finish,
		traceCap: func(int) int { return 1 << 18 },
	}}
}

func (pp *pingpong) body(c *mpi.Comm) {
	const tag = 7
	ep := c.Endpoint()
	scratch := pp.scratch[c.Rank()]
	buf := c.Malloc(ppMaxSize)
	var rx vm.Addr
	if c.Rank() == 0 {
		rx = c.Malloc(ppMaxSize)
	}
	for i, n := range pp.sizes {
		pat := pp.pool[pp.offs[i] : pp.offs[i]+n]
		if c.Rank() == 1 {
			_, err := c.RecvE(buf, n, 0, tag)
			if err != nil || !sameBytes(ep, buf, pat, scratch) {
				pp.failed[i] = true
			}
			if err := c.SendE(buf, n, 0, tag); err != nil {
				pp.failed[i] = true
			}
			continue
		}
		c.WriteBytes(buf, pat)
		t0 := c.Now()
		err := c.SendE(buf, n, 1, tag)
		if _, rerr := c.RecvE(rx, n, 1, tag); err == nil {
			err = rerr
		}
		pp.rtt[i] = c.Now() - t0
		if err != nil || !sameBytes(ep, rx, pat, scratch) {
			pp.failed[i] = true
		}
	}
	c.Free(buf)
	if rx != 0 {
		c.Free(rx)
	}
}

// checkChunk is how much of a received message is read back at a time,
// which keeps the benchmark's own buffers out of the peak heap.
const checkChunk = 64 << 10

// sameBytes reads len(want) bytes at a through the endpoint's address
// space, a scratch-sized chunk at a time, and compares them with want.
func sameBytes(ep *omx.Endpoint, a vm.Addr, want, scratch []byte) bool {
	for off := 0; off < len(want); off += len(scratch) {
		n := min(len(scratch), len(want)-off)
		if ep.AS.Read(a+vm.Addr(off), scratch[:n]) != nil || !bytes.Equal(scratch[:n], want[off:off+n]) {
			return false
		}
	}
	return true
}

// lineTime is the shortest time n payload bytes can take on a default
// link: their serialization at line rate, headers and propagation aside.
func lineTime(n int) sim.Duration {
	return sim.Duration(float64(n) / ethernet.DefaultLinkConfig().BytesPerSec * float64(sim.Second))
}

func (pp *pingpong) finish(_ *cluster.Cluster, out *outcome) {
	for i, n := range pp.sizes {
		out.attempted++
		if pp.failed[i] {
			out.failed++
			continue
		}
		if min := 2 * lineTime(n); pp.rtt[i] < min {
			out.errorf("pingpong: round trip %d of %d B took %v, below the %v wire time", i, n, pp.rtt[i], min)
		}
		out.record(pp.rtt[i])
		out.payload += 2 * int64(n)
	}
}
