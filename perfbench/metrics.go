package main

import (
	"fmt"
	"slices"
	"strings"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

// metricDef names one reported metric. The lists below are the
// benchmark's contract; BENCHMARK.json repeats them.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"txn_per_s", "1/s", "higher"},
	{"commit_rate", "ratio", "higher"},
	{"txn_p50_ms", "ms", "lower"},
	{"txn_p90_ms", "ms", "lower"},
	{"cpu_us_per_txn", "us", "lower"},
	{"allocs_per_txn", "count", "lower"},
}

// Request types whose round trip and service time are reported, and
// frame types whose size is. Other types are left out of the metrics
// but stay in the span file.
var (
	rttTypes     = []wire.MsgType{wire.TReadLockBatchReq, wire.TWriteLockReq, wire.TWriteLockBatchReq, wire.TDecideReq, wire.TWaitGraphReq, wire.TPurgeReq}
	serviceTypes = []wire.MsgType{wire.TReadLockBatchReq, wire.TWriteLockReq, wire.TWriteLockBatchReq, wire.TDecideReq, wire.TFreezeBatchReq, wire.TReleaseBatchReq}
	frameTypes   = []wire.MsgType{
		wire.TReadLockBatchReq, wire.TReadLockBatchResp, wire.TWriteLockReq, wire.TWriteLockResp,
		wire.TWriteLockBatchReq, wire.TWriteLockBatchResp, wire.TDecideReq, wire.TDecideResp,
		wire.TFreezeBatchReq, wire.TReleaseBatchReq,
	}
)

var msgNames = map[wire.MsgType]string{
	wire.TReadLockReq: "read_lock_req", wire.TReadLockResp: "read_lock_resp",
	wire.TWriteLockReq: "write_lock_req", wire.TWriteLockResp: "write_lock_resp",
	wire.TFreezeWriteReq: "freeze_write_req", wire.TFreezeWriteResp: "freeze_write_resp",
	wire.TFreezeReadReq: "freeze_read_req", wire.TFreezeReadResp: "freeze_read_resp",
	wire.TReleaseReq: "release_req", wire.TReleaseResp: "release_resp",
	wire.TDecideReq: "decide_req", wire.TDecideResp: "decide_resp",
	wire.TPurgeReq: "purge_req", wire.TPurgeResp: "purge_resp",
	wire.TStatsReq: "stats_req", wire.TStatsResp: "stats_resp",
	wire.TWriteLockBatchReq: "write_lock_batch_req", wire.TWriteLockBatchResp: "write_lock_batch_resp",
	wire.TFreezeBatchReq: "freeze_batch_req", wire.TFreezeBatchResp: "freeze_batch_resp",
	wire.TReleaseBatchReq: "release_batch_req", wire.TReleaseBatchResp: "release_batch_resp",
	wire.TWaitGraphReq: "wait_graph_req", wire.TWaitGraphResp: "wait_graph_resp",
	wire.TVictimAbortReq: "victim_abort_req", wire.TVictimAbortResp: "victim_abort_resp",
	wire.TReadLockBatchReq: "read_lock_batch_req", wire.TReadLockBatchResp: "read_lock_batch_resp",
	wire.TSnapshotChunkReq: "snapshot_chunk_req", wire.TSnapshotChunkResp: "snapshot_chunk_resp",
	wire.TLogTailReq: "log_tail_req", wire.TLogTailResp: "log_tail_resp",
}

func msgName(t wire.MsgType) string {
	if t == 0 {
		return "-"
	}
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type%d", t)
}

// reqName is a request type's name without its _req suffix.
func reqName(t wire.MsgType) string { return strings.TrimSuffix(msgName(t), "_req") }

// Per-layer call metrics: the coordinator's kv.Txn calls in the cell
// workloads, the mvtl.Store calls in the embedded one.
var (
	clientCalls = []struct {
		kind spanKind
		name string
	}{{kRead, "read"}, {kGetMulti, "getmulti"}, {kWrite, "write"}, {kCommit, "commit"}}
	storeCalls = []struct {
		kind spanKind
		name string
	}{{kRead, "get"}, {kWrite, "set"}, {kCommit, "commit"}}
	siteNames = [...]string{atRead: "read", atWrite: "write", atCommit: "commit"}
	storeSite = [...]string{atRead: "get", atWrite: "set", atCommit: "commit"}
)

// perLayer lists every per-layer metric in report order.
var perLayer = func() []metricDef {
	var ds []metricDef
	add := func(name, unit, better string) { ds = append(ds, metricDef{name, unit, better}) }
	for _, c := range clientCalls {
		add("client."+c.name+"_us_p50", "us", "lower")
		add("client."+c.name+"_us_p99", "us", "lower")
	}
	add("client.self_us_per_txn", "us", "lower")
	for _, s := range siteNames {
		add("client.aborts_at_"+s+"_per_ktxn", "count", "lower")
	}
	add("rpc.calls_per_txn", "count", "lower")
	add("rpc.casts_per_txn", "count", "lower")
	for _, t := range rttTypes {
		add("rpc.rtt_us_p50."+reqName(t), "us", "lower")
		add("rpc.rtt_us_p99."+reqName(t), "us", "lower")
	}
	add("rpc.overhead_us_per_txn", "us", "lower")
	for _, side := range []string{"client", "server"} {
		add("transport.frames_per_txn."+side, "count", "lower")
		add("transport.flushes_per_txn."+side, "count", "lower")
		add("transport.bytes_per_txn."+side, "B", "lower")
		add("transport.frames_per_flush."+side, "count", "higher")
		add("transport.send_us_per_txn."+side, "us", "lower")
	}
	for _, t := range frameTypes {
		add("wire.bytes_per_frame."+msgName(t), "B", "lower")
	}
	for _, t := range serviceTypes {
		add("server.service_us_p50."+reqName(t), "us", "lower")
		add("server.service_us_p99."+reqName(t), "us", "lower")
	}
	add("server.busy_us_per_txn", "us", "lower")
	add("server.lock_entries_per_key", "count", "lower")
	add("server.frozen_per_key", "count", "lower")
	add("server.versions_per_key", "count", "lower")
	add("server.live_txns", "count", "lower")
	add("gc.purge_ms_p50", "ms", "lower")
	add("gc.purge_ms_max", "ms", "lower")
	add("gc.versions_removed_per_purge", "count", "higher")
	add("gc.locks_removed_per_purge", "count", "higher")
	for _, c := range storeCalls {
		add("store."+c.name+"_us_p50", "us", "lower")
		add("store."+c.name+"_us_p99", "us", "lower")
	}
	for _, s := range storeSite {
		add("store.aborts_at_"+s+"_per_ktxn", "count", "lower")
	}
	add("store.lock_entries_per_key", "count", "lower")
	add("store.frozen_per_key", "count", "lower")
	add("store.versions_per_key", "count", "lower")
	add("txn.p99_ms", "ms", "lower")
	add("go.alloc_bytes_per_txn", "B", "lower")
	add("go.gc_cycles_per_ktxn", "count", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return ds
}()

// phaseTotals sums one phase's counts over every client.
func (m *measurement) phaseTotals(p int) counts {
	var t counts
	for _, c := range m.clients {
		t.add(&c.ph[p].counts)
	}
	return t
}

// measured sums both measured phases.
func (m *measurement) measured() counts {
	t := m.phaseTotals(phaseUntraced)
	tr := m.phaseTotals(phaseTraced)
	t.add(&tr)
	return t
}

// latencies gathers one phase's committed latencies, in ns, sorted.
func (m *measurement) latencies(p int) []int64 {
	var lat []uint64
	for _, c := range m.clients {
		lat = c.ph[p].latency.appendTo(lat)
	}
	out := make([]int64, len(lat))
	for i, v := range lat {
		out[i] = int64(v)
	}
	slices.Sort(out)
	return out
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
func endToEndMetrics(m *measurement) map[string]float64 {
	u := m.phaseTotals(phaseUntraced)
	commits := float64(u.commits)
	lat := m.latencies(phaseUntraced)
	return map[string]float64{
		"setup_s":        medianFloat(m.setupS),
		"txn_per_s":      ratio(commits, float64(m.end-m.start)/1e9),
		"commit_rate":    ratio(commits, float64(u.attempts)),
		"txn_p50_ms":     float64(percentile(lat, 0.50)) / 1e6,
		"txn_p90_ms":     float64(percentile(lat, 0.90)) / 1e6,
		"cpu_us_per_txn": ratio(float64(m.cpu)/1e3, commits),
		"allocs_per_txn": ratio(float64(m.mem1.mallocs-m.mem0.mallocs), commits),
	}
}

// durations groups span durations (ns) by a key.
type durations map[string][]int64

func (d durations) add(k string, ns int64) { d[k] = append(d[k], ns) }

// pct returns the q-percentile of key k in microseconds.
func (d durations) pct(k string, q float64) float64 {
	return float64(percentile(sortedCopy(d[k]), q)) / 1e3
}

// layerMetrics derives the per-layer metrics of a traced run. Metrics
// of layers the workload does not exercise read 0.
func layerMetrics(m *measurement) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	tr := m.phaseTotals(phaseTraced)
	all := m.measured()
	txns := float64(tr.commits)
	perTxn := func(x float64) float64 { return ratio(x, txns) }
	perKAttempt := func(x int64) float64 { return ratio(float64(x)*1000, float64(all.attempts)) }

	// Calls, timed from the loop, and their self time net of the rpc and
	// cast spans sent while each was open.
	children := map[uint64][]interval{}
	m.net.spans.each(func(s *span) {
		if (s.kind == kRPC || s.kind == kCast) && s.parent != 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	})
	calls := durations{}
	var self int64
	for _, c := range m.clients {
		c.spans.each(func(s *span) {
			if s.kind == kTxn {
				return
			}
			calls.add(kindNames[s.kind], s.dur())
			self += selfTime(interval{s.start, s.end}, children[s.id])
		})
	}
	if m.cfg.spec.cell {
		for _, c := range clientCalls {
			out["client."+c.name+"_us_p50"] = calls.pct(kindNames[c.kind], 0.50)
			out["client."+c.name+"_us_p99"] = calls.pct(kindNames[c.kind], 0.99)
		}
		out["client.self_us_per_txn"] = perTxn(float64(self) / 1e3)
		for i, s := range siteNames {
			out["client.aborts_at_"+s+"_per_ktxn"] = perKAttempt(all.abortsAt[i])
		}
	} else {
		for _, c := range storeCalls {
			out["store."+c.name+"_us_p50"] = calls.pct(kindNames[c.kind], 0.50)
			out["store."+c.name+"_us_p99"] = calls.pct(kindNames[c.kind], 0.99)
		}
		for i, s := range storeSite {
			out["store.aborts_at_"+s+"_per_ktxn"] = perKAttempt(all.abortsAt[i])
		}
	}

	// RPC, server and transport layers: transaction traffic only; the GC
	// loop's round trips give the purge rtt.
	rtt, service := durations{}, durations{}
	served := map[[2]uint64]int64{}
	var busy int64
	var nRPC, nCast int
	m.net.spans.each(func(s *span) {
		if s.kind == kServe {
			served[[2]uint64{uint64(s.link), s.frame}] = s.dur()
			service.add(reqName(s.msg), s.dur())
			busy += s.dur()
		}
	})
	var overhead int64
	m.net.spans.each(func(s *span) {
		switch s.kind {
		case kRPC:
			nRPC++
			rtt.add(reqName(s.msg), s.dur())
			if sv, ok := served[[2]uint64{uint64(s.link), s.frame}]; ok {
				overhead += s.dur() - sv
			}
		case kCast:
			nCast++
		}
	})
	m.net.gcSpans.each(func(s *span) {
		if s.kind == kRPC {
			rtt.add(reqName(s.msg), s.dur())
		}
	})
	if m.cfg.spec.cell {
		out["rpc.calls_per_txn"] = perTxn(float64(nRPC))
		out["rpc.casts_per_txn"] = perTxn(float64(nCast))
		for _, t := range rttTypes {
			out["rpc.rtt_us_p50."+reqName(t)] = rtt.pct(reqName(t), 0.50)
			out["rpc.rtt_us_p99."+reqName(t)] = rtt.pct(reqName(t), 0.99)
		}
		out["rpc.overhead_us_per_txn"] = perTxn(float64(overhead) / 1e3)
		for side, st := range map[string]*sideStats{"client": &m.net.client, "server": &m.net.server} {
			out["transport.frames_per_txn."+side] = perTxn(float64(st.frames))
			out["transport.flushes_per_txn."+side] = perTxn(float64(st.flushes))
			out["transport.bytes_per_txn."+side] = perTxn(float64(st.bytes))
			out["transport.frames_per_flush."+side] = ratio(float64(st.frames), float64(st.flushes))
			out["transport.send_us_per_txn."+side] = perTxn(float64(st.sendNs) / 1e3)
		}
		for _, t := range frameTypes {
			c, s := m.net.client.byType[t], m.net.server.byType[t]
			out["wire.bytes_per_frame."+msgName(t)] = ratio(float64(c.bytes+s.bytes), float64(c.frames+s.frames))
		}
		for _, t := range serviceTypes {
			out["server.service_us_p50."+reqName(t)] = service.pct(reqName(t), 0.50)
			out["server.service_us_p99."+reqName(t)] = service.pct(reqName(t), 0.99)
		}
		out["server.busy_us_per_txn"] = perTxn(float64(busy) / 1e3)
	}

	// State size, sampled at every window boundary.
	var lockPK, frozenPK, versPK, live float64
	for _, w := range m.windows {
		k := float64(w.state.keys)
		lockPK += ratio(float64(w.state.lockEntries), k)
		frozenPK += ratio(float64(w.state.frozen), k)
		versPK += ratio(float64(w.state.versions), k)
		live += float64(w.state.liveTxns)
	}
	n := float64(len(m.windows))
	layer := "store"
	if m.cfg.spec.cell {
		layer = "server"
		out["server.live_txns"] = ratio(live, n)
	}
	out[layer+".lock_entries_per_key"] = ratio(lockPK, n)
	out[layer+".frozen_per_key"] = ratio(frozenPK, n)
	out[layer+".versions_per_key"] = ratio(versPK, n)

	// GC: every purge inside the measured interval.
	var purgeNs []int64
	var vers, locks int64
	for _, p := range m.purges {
		if p.start >= m.start && p.end <= m.end {
			purgeNs = append(purgeNs, p.end-p.start)
			vers += p.versions
			locks += p.locks
		}
	}
	slices.Sort(purgeNs)
	if len(purgeNs) > 0 {
		out["gc.purge_ms_p50"] = float64(percentile(purgeNs, 0.5)) / 1e6
		out["gc.purge_ms_max"] = float64(purgeNs[len(purgeNs)-1]) / 1e6
	}
	out["gc.versions_removed_per_purge"] = ratio(float64(vers), float64(len(purgeNs)))
	out["gc.locks_removed_per_purge"] = ratio(float64(locks), float64(len(purgeNs)))

	// Go runtime, over the untraced windows; tracing overhead from the
	// two kinds of window.
	var allocB, gcs float64
	var durU, durT float64
	for _, w := range m.windows {
		d := float64(w.end-w.start) / 1e9
		if w.phase == phaseTraced {
			durT += d
			continue
		}
		durU += d
		allocB += float64(w.mem1.totalAlloc - w.mem0.totalAlloc)
		gcs += float64(w.mem1.numGC - w.mem0.numGC)
	}
	u := m.phaseTotals(phaseUntraced)
	out["txn.p99_ms"] = float64(percentile(m.latencies(phaseUntraced), 0.99)) / 1e6
	out["go.alloc_bytes_per_txn"] = ratio(allocB, float64(u.commits))
	out["go.gc_cycles_per_ktxn"] = ratio(gcs*1000, float64(u.commits))
	tpsU, tpsT := ratio(float64(u.commits), durU), ratio(txns, durT)
	out["trace.overhead_frac"] = 1 - ratio(tpsT, tpsU)
	return out
}
