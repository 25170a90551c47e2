package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// snap holds every public counter the benchmark diffs over a measured
// window, summed over the cluster's nodes and keyed by name.
type snap map[string]float64

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnap(c *cluster) snap {
	s := snap{}
	add := func(k string, v uint64) { s[k] += float64(v) }
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s["cpu_ns"] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ns := c.sys.Network.Stats()
	add("frames", ns.Frames)
	add("net_bytes", ns.Bytes)
	add("retransmits", ns.Retransmits)
	for _, n := range c.nodes {
		ts := n.TMF.Stats()
		add("begun", ts.Begun)
		add("broadcasts", ts.BroadcastMsgs)
		add("safe_retries", n.TMF.Registry().Counter("tmf.safe_retries").Value())
		add("mat", uint64(n.TMF.MonitorTrail().Len()))
		x, y := n.HW.BusTraffic()
		add("bus", x+y)
		for _, v := range n.Volumes {
			ds := v.Proc.Stats()
			add("dp_ops", ds.Ops)
			add("browse", ds.Sched.BrowseOps)
			add("enqueued", ds.Sched.Enqueued)
			add("stalls", ds.Sched.ConflictStalls)
			add("violations", ds.Sched.Violations)
			s["max_queued"] = max(s["max_queued"], float64(ds.Sched.MaxQueued))
			add("lock_waits", ds.LockStats.Waits)
			add("lock_timeouts", ds.LockStats.Timeouts)
			add("hits", ds.CacheStats.Hits)
			add("misses", ds.CacheStats.Misses)
			add("evictions", ds.CacheStats.Evictions)
			add("checkpoints", ds.Pair.Checkpoints)
			if v.Trail != nil {
				add("audit_recs", v.Trail.AppendedLSN())
				add("audit_bytes", uint64(v.Trail.SizeBytes()))
				fs := v.Trail.ForceStats()
				add("forces", fs.Forces)
				add("force_reqs", fs.Requests)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	add("mallocs", ms.Mallocs)
	add("alloc_bytes", ms.TotalAlloc)
	add("gcs", uint64(ms.NumGC))
	metrics.Read(cpuSamples)
	s["gc_cpu_s"], s["all_cpu_s"] = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return s
}

// addDelta adds the change from a to b to every counter of s.
func (s snap) addDelta(a, b snap) {
	for k, v := range b {
		s[k] += v - a[k]
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reports the per-layer ledger. Counters come from d, their
// change summed over the untraced closed windows, and from end where they
// are high-water marks; the GC's CPU share spans all rounds, first to end,
// because the runtime updates its CPU classes only at GC. Call timings
// come from the traced windows' spans; generator health comes from the
// paced windows.
func layerMetrics(put func(string, float64, string), d, first, end snap, cl, pc phaseResult, spans [][]span) {
	ops := float64(cl.completed)
	txs := d["begun"]
	per := func(k string, base float64) float64 { return ratio(d[k], base) }

	// Call timings from spans: per-kind durations and self times.
	var durs [numSpanKinds][]time.Duration
	var self [numSpanKinds]time.Duration
	var total time.Duration
	var nSpans int
	for _, ss := range spans {
		child := make([]time.Duration, len(ss))
		for _, s := range ss {
			if s.parent >= 0 {
				child[s.parent] += time.Duration(s.end - s.start)
			}
		}
		for i, s := range ss {
			dur := time.Duration(s.end - s.start)
			durs[s.kind] = append(durs[s.kind], dur)
			self[s.kind] += dur - child[i]
			if s.kind == spOp {
				total += dur
			}
		}
		nSpans += len(ss)
	}
	p50 := func(k byte) float64 {
		slices.Sort(durs[k])
		v, _ := quantile(durs[k], 0.5)
		return us(v)
	}
	var commitTotal time.Duration
	for _, x := range durs[spCommit] {
		commitTotal += x
	}

	put("tmf.begin_p50_us", p50(spBegin), "us")
	put("tmf.end_p50_us", p50(spCommit), "us")
	put("tmf.abort_p50_us", p50(spAbort), "us")
	put("tmf.end_share", ratio(float64(commitTotal), float64(total)), "ratio")
	put("tmf.broadcasts_per_tx", per("broadcasts", txs), "count")
	put("tmf.safe_retries", d["safe_retries"], "count")

	put("expand.frames_per_tx", per("frames", txs), "count")
	put("expand.bytes_per_tx", per("net_bytes", txs), "B")
	put("expand.retransmits", d["retransmits"], "count")

	put("fsys.readlock_p50_us", p50(spReadLock), "us")
	put("fsys.update_p50_us", p50(spUpdate), "us")
	put("fsys.append_p50_us", p50(spAppend), "us")
	put("fsys.read_p50_us", p50(spRead), "us")
	put("fsys.range_p50_us", p50(spRange), "us")

	dpOps := d["dp_ops"]
	put("discproc.ops_per_op", ratio(dpOps, ops), "count")
	put("discproc.browse_share", per("browse", d["browse"]+d["enqueued"]), "ratio")
	put("discproc.conflict_stalls_per_kop", 1000*per("stalls", dpOps), "count")
	put("discproc.max_queued", end["max_queued"], "count")
	put("discproc.violations", end["violations"], "count")

	put("lock.waits_per_ktx", 1000*per("lock_waits", txs), "count")
	put("lock.timeouts", d["lock_timeouts"], "count")

	hits, misses := d["hits"], d["misses"]
	put("dbfile.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("dbfile.evictions_per_op", per("evictions", ops), "count")

	auditBytes, forces := d["audit_bytes"], d["forces"]
	put("audit.records_per_tx", per("audit_recs", txs), "count")
	put("audit.bytes_per_tx", ratio(auditBytes, txs), "B")
	put("audit.bytes_per_user_byte", ratio(auditBytes, float64(cl.userBytes)), "ratio")
	put("audit.forces_per_tx", ratio(forces, txs), "count")
	put("audit.requests_per_force", per("force_reqs", forces), "count")
	put("audit.mat_records_per_tx", per("mat", txs), "count")

	put("hw.bus_transfers_per_tx", per("bus", txs), "count")
	put("pair.checkpoints_per_op", per("checkpoints", ops), "count")

	put("go.allocs_per_op", per("mallocs", ops), "count")
	put("go.alloc_kb_per_op", per("alloc_bytes", ops)/1024, "KB")
	put("go.gc_cpu_frac", ratio(end["gc_cpu_s"]-first["gc_cpu_s"], end["all_cpu_s"]-first["all_cpu_s"]), "ratio")
	put("go.gc_cycles", d["gcs"], "count")

	put("trace.spans", float64(nSpans), "count")
	for k := byte(0); k < numSpanKinds; k++ {
		put("trace."+spanNames[k]+".self_us_per_op", ratio(us(self[k]), float64(len(durs[spOp]))), "us")
	}

	l50, _ := quantile(pc.late, 0.50)
	l99, _ := quantile(pc.late, 0.99)
	pp99, _ := quantile(pc.lat, 0.99)
	put("gen.late_p50_us", us(l50), "us")
	put("gen.late_p99_us", us(l99), "us")
	put("gen.paced_p99_ms", ms(pp99), "ms")
	put("gen.paced_samples", float64(len(pc.lat)), "count")

	put("closed.samples", float64(len(cl.lat)), "count")
}
