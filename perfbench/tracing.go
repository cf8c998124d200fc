package main

import (
	"omxsim/internal/cluster"
	"omxsim/internal/report"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
)

// tracedKinds are the event kinds the workloads emit. The chaos kinds
// (crash, restart, link degradation, budget shrink) are left out: no
// workload injects faults, so their counts are always zero.
var tracedKinds = []trace.Kind{
	trace.RndvSent, trace.RndvRecv, trace.PullReqSent, trace.PullReplySent,
	trace.FragAccepted, trace.OverlapMissSnd, trace.OverlapMissRcv,
	trace.ReRequest, trace.NotifySent, trace.MsgComplete,
	trace.PinStart, trace.PinDone, trace.PinFail, trace.Unpin,
	trace.Invalidate, trace.CacheHit, trace.CacheMiss, trace.OdpFault,
	trace.CacheInvalidate,
}

// attachRecorders gives every process one recorder, shared by all of its
// endpoints: aux lanes share the rank's process, and with it the pin
// manager whose trace hook SetTrace also sets.
func attachRecorders(cl *cluster.Cluster, capOf func(node int) int) []*trace.Recorder {
	var recs []*trace.Recorder
	for _, p := range cl.Processes() {
		rec := trace.NewRecorder(capOf(p.Node().ID))
		for _, ep := range p.Endpoints() {
			ep.SetTrace(rec)
		}
		recs = append(recs, rec)
	}
	return recs
}

// spanStats aggregates a traced round's spans on the simulated clock.
type spanStats struct {
	pinWait report.Hist // PinStart → PinDone of one region
	rndv    report.Hist // RndvRecv → MsgComplete of one message, at the receiver
	counts  map[trace.Kind]uint64
	dropped uint64
}

func newSpanStats() *spanStats { return &spanStats{counts: map[trace.Kind]uint64{}} }

type msgSpanKey struct {
	seq   uint64
	total int
}

// collect folds a cell's recorders in. Spans pair within one recorder:
// a pin by region id, a message by (sequence, length) first-in
// first-out, which is exact wherever a receiver has a single peer and
// pairs concurrent same-sequence messages from different peers in
// arrival order otherwise.
func (s *spanStats) collect(recs []*trace.Recorder) {
	for _, r := range recs {
		for _, k := range tracedKinds {
			s.counts[k] += r.Count(k)
		}
		s.dropped += r.Dropped()
		pins := map[uint64]sim.Time{}
		open := map[msgSpanKey][]sim.Time{}
		for _, e := range r.Events() {
			switch e.Kind {
			case trace.PinStart:
				pins[e.Seq] = e.T
			case trace.PinDone:
				if t, ok := pins[e.Seq]; ok {
					s.pinWait.Record(int64(e.T - t))
					delete(pins, e.Seq)
				}
			case trace.PinFail:
				delete(pins, e.Seq)
			case trace.RndvRecv:
				k := msgSpanKey{e.Seq, e.A}
				open[k] = append(open[k], e.T)
			case trace.MsgComplete:
				k := msgSpanKey{e.Seq, e.A}
				if q := open[k]; len(q) > 0 {
					s.rndv.Record(int64(e.T - q[0]))
					open[k] = q[1:]
				}
			}
		}
	}
}
