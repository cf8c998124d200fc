package main

import (
	"omxsim/internal/cluster"
	"omxsim/internal/cpu"
)

// addLayers adds a finished cell's per-layer counts, read from the
// program's public stats, to m. Counts sum across a round's cells; the
// ratios are formed once, in finishLayers.
func addLayers(m map[string]float64, cl *cluster.Cluster) {
	m["sim.events"] += float64(cl.ForegroundEventsFired())

	for _, n := range cl.Nodes {
		m["ethernet.frames"] += float64(n.NIC.TxFrames())
		m["ethernet.bytes"] += float64(n.NIC.TxBytes())
		m["ethernet.drops"] += float64(n.NIC.Dropped())
	}

	st := cl.Stats()
	m["omx.pull_replies"] += float64(st.PullRepliesRx)
	m["omx.overlap_misses"] += float64(st.OverlapMissSender + st.OverlapMissReceiver)
	m["omx.rereqs"] += float64(st.ReRequests)
	m["omx.retransmits"] += float64(st.Retransmits)

	// Endpoints of one process share a manager and a cache: fold each
	// process in once.
	for _, p := range cl.Processes() {
		ms := p.Manager().Stats()
		m["core.pin_ops"] += float64(ms.PinOps)
		m["core.pages_pinned"] += float64(ms.PagesPinned)
		m["core.repins"] += float64(ms.Repins)
		m["core.pin_failures"] += float64(ms.PinFailures)
		m["core.odp_faults"] += float64(ms.ODPFaults)
		m["core.odp_fault_pages"] += float64(ms.ODPFaultPages)
		cs := p.Cache().Stats()
		m["core.cache_hits"] += float64(cs.Hits + cs.SubrangeHits)
		m["core.cache_misses"] += float64(cs.Misses)
		m["core.cache_invalidations"] += float64(cs.Invalidations)
		m["vm.swap_ins"] += float64(p.AS.SwapIns())
	}

	elapsed := float64(cl.Now())
	for _, n := range cl.Nodes {
		rs := n.Phys.ReclaimStats()
		m["vm.pgscan"] += float64(rs.PgScan)
		m["vm.pgsteal"] += float64(rs.PgSteal)
		m["vm.pinned_resists"] += float64(rs.PinnedResists)
		m["vm.kswapd_runs"] += float64(rs.KswapdRuns)
		m["vm.direct_stalls"] += float64(rs.DirectStalls)
		for i := 0; i < n.Machine.NumCores(); i++ {
			c := n.Machine.Core(i)
			m["cpu.busy_bh_us"] += c.BusyTime(cpu.BottomHalf).Micros()
			m["cpu.busy_kernel_us"] += c.BusyTime(cpu.Kernel).Micros()
			m["cpu.busy_user_us"] += c.BusyTime(cpu.User).Micros()
			// The busiest interrupt core sets the bottom-half queueing
			// every message behind it waits through.
			if elapsed > 0 {
				if u := float64(c.BusyTime(cpu.BottomHalf)) / elapsed; u > m["cpu.bh_util"] {
					m["cpu.bh_util"] = u
				}
			}
		}
	}
}

// finishLayers forms the ratios and copies the kv figures once a round's
// cells have all been added.
func finishLayers(m map[string]float64, out *outcome) {
	if d := m["core.cache_hits"] + m["core.cache_misses"]; d > 0 {
		m["core.cache_hit_ratio"] = m["core.cache_hits"] / d
	} else {
		m["core.cache_hit_ratio"] = 0
	}
	if m["vm.pgscan"] > 0 {
		m["vm.steal_ratio"] = m["vm.pgsteal"] / m["vm.pgscan"]
	} else {
		m["vm.steal_ratio"] = 0
	}
	m["kv.ops_ok"] = float64(out.kv.okOps)
	m["kv.failovers"] = float64(out.kv.failovers)
	m["kv.get_p99_us"] = out.kv.get.QuantileUS(0.99)
	m["kv.put_p99_us"] = out.kv.put.QuantileUS(0.99)
}

// checkPinLedger holds every process's pin accounting to balance once the
// cluster is closed: each page pinned was unpinned exactly once and none
// stays pinned.
func checkPinLedger(cl *cluster.Cluster, name string, out *outcome) {
	for _, p := range cl.Processes() {
		st := p.Manager().Stats()
		if st.PagesPinned != st.PagesUnpinned || p.Manager().PinnedPages() != 0 {
			out.errorf("%s: node %d pid %d: pin ledger %d pinned / %d unpinned, %d still pinned",
				name, p.Node().ID, p.PID(), st.PagesPinned, st.PagesUnpinned, p.Manager().PinnedPages())
		}
	}
}
