package main

import (
	"math/rand"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// reclaim-churn: a stream of 1 MiB messages from node 0 to node 1 whose
// frame budget is below the working set. The sender frees and re-mallocs
// its buffer every message while a hog process on each node dirties
// memory, and the same seeded schedule runs under overlapped pinning with
// the registration cache and under the no-pin ODP backend.
//
// A third cell, the probe, runs the ODP backend at a heavier pressure (a
// 2 MiB hog against 640 frames), where the stalled pull of a message
// keeps losing its freshly faulted pages to reclaim until internal/omx
// declares the live sender dead and aborts the message. Its inputs are
// fixed rather than seeded, so the same messages fail in every round of
// every run; they are counted as failed operations.
const (
	rcMsgBytes    = 1 << 20
	rcMsgs        = 750 // per seeded cell: the p99 of 1500 lies inside one mode of the ODP tail
	rcShort       = 40
	rcHogBytes    = 1 << 20
	rcFrames      = 448 // per node: below one comm buffer (256) plus the hog (256)
	rcProbeMsgs   = 100
	rcProbeHog    = 2 << 20
	rcProbeFrames = 640
	rcProbeSeed   = 1
	rcGaps        = 64
	rcTraceCap    = 1 << 18
)

type reclaimPlan struct {
	pool    []byte
	offs    []int
	sendGap []sim.Duration // sender think time before message i
	hogGap  []sim.Duration // hog pause after sweep j, cycled
	hogPage []byte
}

// churn is one cell's run of a plan.
type churn struct {
	*reclaimPlan
	hogBytes int
	probe    bool
	scratch  []byte
	lat      []sim.Duration
	failed   []bool
	done     bool
}

func newReclaimPlan(seed int64, n int) *reclaimPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &reclaimPlan{
		pool:    patternPool(rng, 2*rcMsgBytes),
		offs:    make([]int, n),
		sendGap: make([]sim.Duration, n),
		hogGap:  make([]sim.Duration, rcGaps),
		hogPage: patternPool(rng, vm.PageSize),
	}
	for i := range p.offs {
		p.offs[i] = rng.Intn(len(p.pool) - rcMsgBytes + 1)
		p.sendGap[i] = sim.Duration(50+rng.Intn(100)) * sim.Microsecond
	}
	for i := range p.hogGap {
		p.hogGap[i] = sim.Duration(2000+rng.Intn(2000)) * sim.Microsecond
	}
	return p
}

func planReclaim(o options) []cell {
	n := rcMsgs
	if o.short {
		n = rcShort
	}
	p := newReclaimPlan(o.seed, n)
	return []cell{
		churnCell("overlapped-cache", core.Overlapped, p, rcHogBytes, rcFrames, o.seed, false),
		churnCell("odp", core.NoPinODP, p, rcHogBytes, rcFrames, o.seed, false),
		churnCell("odp-probe", core.NoPinODP, newReclaimPlan(rcProbeSeed, rcProbeMsgs),
			rcProbeHog, rcProbeFrames, rcProbeSeed, true),
	}
}

func churnCell(name string, pol core.PinPolicy, p *reclaimPlan, hogBytes, frames int, seed int64, probe bool) cell {
	ch := &churn{
		reclaimPlan: p,
		hogBytes:    hogBytes,
		probe:       probe,
		scratch:     make([]byte, checkChunk),
		lat:         make([]sim.Duration, len(p.offs)),
		failed:      make([]bool, len(p.offs)),
	}
	return cell{
		name: name,
		cfg: cluster.Config{
			Nodes:        2,
			RanksPerNode: 2,
			Mem:          omx.MemConfig{Frames: frames},
			OMX:          omx.DefaultConfig(pol, true),
			Seed:         seed,
		},
		body:     ch.body,
		finish:   ch.finish,
		traceCap: func(int) int { return rcTraceCap },
		probe:    probe,
	}
}

// Ranks 0 and 1 run on node 0, ranks 2 and 3 on node 1: rank 0 streams to
// rank 2, ranks 1 and 3 are the hogs.
func (ch *churn) body(c *mpi.Comm) {
	const tag = 9
	switch c.Rank() {
	case 0:
		var buf vm.Addr
		for i, off := range ch.offs {
			if buf != 0 {
				c.Free(buf)
			}
			buf = c.Malloc(rcMsgBytes)
			c.WriteBytes(buf, ch.pool[off:off+rcMsgBytes])
			c.Compute(ch.sendGap[i])
			t0 := c.Now()
			if err := c.SendE(buf, rcMsgBytes, 2, tag); err != nil {
				ch.failed[i] = true
			}
			ch.lat[i] = c.Now() - t0
		}
		c.Free(buf)
	case 2:
		rx := c.Malloc(rcMsgBytes)
		ep := c.Endpoint()
		for i, off := range ch.offs {
			_, err := c.RecvE(rx, rcMsgBytes, 0, tag)
			if err != nil || !sameBytes(ep, rx, ch.pool[off:off+rcMsgBytes], ch.scratch) {
				ch.failed[i] = true
			}
		}
		// One engine runs both nodes, so the hogs see this flag in
		// simulated-time order.
		ch.done = true
		c.Free(rx)
	default:
		hog := c.Malloc(ch.hogBytes)
		for j := 0; !ch.done; j++ {
			for off := 0; off < ch.hogBytes; off += vm.PageSize {
				c.WriteBytes(hog+vm.Addr(off), ch.hogPage)
			}
			c.Compute(ch.hogGap[j%len(ch.hogGap)])
		}
		c.Free(hog)
	}
}

func (ch *churn) finish(_ *cluster.Cluster, out *outcome) {
	for i := range ch.offs {
		out.attempted++
		if ch.failed[i] {
			out.failed++
			continue
		}
		if min := lineTime(rcMsgBytes); ch.lat[i] < min {
			out.errorf("reclaim: message %d completed in %v, below the %v wire time", i, ch.lat[i], min)
		}
		if !ch.probe {
			out.record(ch.lat[i])
			out.payload += rcMsgBytes
		}
	}
}
