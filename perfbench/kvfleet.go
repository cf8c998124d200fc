package main

import (
	"fmt"
	"sync"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/kv"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/report"
)

// kv-fleet: open-loop replicated kv serving on 16 two-lane storage
// servers (4-queue NICs) and 256 client nodes, on two engine shards,
// under the pinning-cache backend. Once warm every value buffer is a
// cache hit, so the pin path idles and the work is per-message overhead.
const (
	kvServers   = 16
	kvClients   = 256
	kvOps       = 16 // per client: 4096 in all, so ≥ ten beyond the p99
	kvOpsShort  = 2
	kvRate      = 200 // per client, operations per simulated second
	kvShards    = 2
	kvValue     = 64 << 10
	kvInflight  = 16
	kvServerCap = 1 << 15
	kvClientCap = 1 << 11
)

func kvConfig(o options) kv.Config {
	ops := kvOps
	if o.short {
		ops = kvOpsShort
	}
	return kv.Config{
		Servers:     kvServers,
		Keys:        512,
		ValueBytes:  kvValue,
		Theta:       0.99,
		Workers:     4,
		Replication: 2,
		Tenants: []kv.Tenant{
			{Name: "t0", Ops: ops, Rate: kvRate, GetFrac: 0.8, MaxInflight: kvInflight},
		},
	}
}

func planKVFleet(o options) []cell {
	shards := kvShards
	if o.shards > 0 {
		shards = o.shards
	}
	cfg := kvConfig(o)
	s := &sink{}
	return []cell{{
		name: "cache",
		cfg: cluster.Config{
			Groups: []cluster.NodeGroup{
				{Name: "storage", Nodes: kvServers, EndpointsPerNode: 2, NICQueues: 4},
				{Name: "clients", Nodes: kvClients},
			},
			OMX:    omx.DefaultConfig(core.OnDemand, true),
			Shards: shards,
			Seed:   o.seed,
		},
		body:   func(c *mpi.Comm) { kv.Run(c, s, o.seed, cfg) },
		finish: func(cl *cluster.Cluster, out *outcome) { finishKV(cfg, s, len(cl.Endpoints), out) },
		traceCap: func(node int) int {
			if node < kvServers {
				return kvServerCap
			}
			return kvClientCap
		},
	}}
}

func finishKV(cfg kv.Config, s *sink, ranks int, out *outcome) {
	for _, n := range s.notes {
		out.errorf("kv note: %s", n)
	}
	clients := 0
	m := kv.Collect(cfg, ranks, func(r int) *kv.Stats {
		st, _ := s.stash[kv.StashKey(r)].(*kv.Stats)
		if st != nil && st.Tenant >= 0 {
			clients++
		}
		return st
	})
	if clients != ranks-cfg.Servers {
		out.errorf("kv: %d of %d clients reported", clients, ranks-cfg.Servers)
	}
	var issued, ok, rejected, errs, bad int
	for _, t := range m.Tenants {
		issued += t.Issued
		ok += t.OK
		rejected += t.Rejected
		errs += t.Errors
		bad += t.BadVals
	}
	if want := (ranks - cfg.Servers) * cfg.Tenants[0].Ops; issued != want {
		out.errorf("kv: %d ops issued, schedule has %d", issued, want)
	}
	if issued != ok+rejected+errs {
		out.errorf("kv: issued %d != ok %d + rejected %d + errors %d", issued, ok, rejected, errs)
	}
	if n := int(m.Get.Count() + m.Put.Count()); n != ok {
		out.errorf("kv: histograms hold %d samples for %d completed ops", n, ok)
	}
	if bad != 0 {
		out.errorf("kv: %d GETs returned a bad value", bad)
	}
	if m.ServerErrs != 0 {
		out.errorf("kv: servers report %d errors", m.ServerErrs)
	}
	for _, h := range []struct {
		name string
		h    *report.Hist
	}{{"get", &m.Get}, {"put", &m.Put}} {
		if h.h.Count() > 0 && h.h.Min() < int64(lineTime(cfg.ValueBytes)) {
			out.errorf("kv: fastest %s took %d ns, below the %v wire time", h.name, h.h.Min(), lineTime(cfg.ValueBytes))
		}
		checkHist("kv "+h.name, h.h, out)
	}
	out.attempted += issued
	out.failed += rejected + errs + bad
	out.payload += int64(ok) * int64(cfg.ValueBytes)
	out.lat.Merge(&m.Get)
	out.lat.Merge(&m.Put)
	out.kv.okOps += ok
	out.kv.failovers += m.Failovers
	out.kv.get.Merge(&m.Get)
	out.kv.put.Merge(&m.Put)
}

// sink collects kv rank records; ranks on different shards stash
// concurrently.
type sink struct {
	mu    sync.Mutex
	stash map[string]any
	notes []string
}

func (s *sink) Stash(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stash == nil {
		s.stash = make(map[string]any)
	}
	s.stash[key] = v
}

func (s *sink) Note(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}
