package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"cesrm/internal/experiment"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/trace"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// perPass applies f to every pass and returns the median.
func perPass(passes []passResult, f func(p *passResult) float64) float64 {
	xs := make([]float64, len(passes))
	for i := range passes {
		xs[i] = f(&passes[i])
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics of an untraced loop. Timings
// and memory are medians over passes; the simulated metrics are
// deterministic for the seed and come from the first pass.
func endToEnd(specs []runSpec, passes []passResult, setup []float64) []metric {
	// Throughput is total work over total time, so every run in the
	// window weighs by its duration; the kernel calls, spread evenly
	// over the same run time, convert it to reference seconds.
	rx := rxPkts(specs)
	var runNS float64
	var refs []int64
	for i := range passes {
		runNS += float64(passes[i].totalRunNS())
		refs = append(refs, passes[i].refNS...)
	}
	var latency, expedited float64
	var nExp int
	var srmX, cesrmX float64
	ps := passes[0].pairs
	for _, p := range ps {
		latency += p.latencyReduction
		if p.expedites {
			expedited += p.expedited
			nExp++
		}
		srmX += float64(p.srmX)
		cesrmX += float64(p.cesrmX)
	}
	if len(ps) > 0 {
		latency /= float64(len(ps))
	}
	if nExp > 0 {
		expedited /= float64(nExp)
	}
	xings := 0.0
	if srmX > 0 {
		xings = 100 * cesrmX / srmX
	}
	return []metric{
		{"rx_pkts_per_s", "1/s", float64(len(passes)) * rx / refSeconds(runNS, refs)},
		{"setup_s", "s", median(append([]float64(nil), setup...))},
		{"peak_heap_mb", "MB", perPass(passes, func(p *passResult) float64 { return float64(p.peakHeap) / 1e6 })},
		{"mallocs", "count", perPass(passes, func(p *passResult) float64 { return float64(p.mallocs) })},
		{"alloc_mb", "MB", perPass(passes, func(p *passResult) float64 { return float64(p.allocBytes) / 1e6 })},
		{"latency_reduction_pct", "%", latency},
		{"expedited_success_pct", "%", expedited},
		{"recovery_xings_pct", "%", xings},
	}
}

// distinct returns the traces the runs use, in first-use order.
func distinct(specs []runSpec) []*trace.Trace {
	seen := map[*trace.Trace]bool{}
	var out []*trace.Trace
	for _, sp := range specs {
		if !seen[sp.cfg.Trace] {
			seen[sp.cfg.Trace] = true
			out = append(out, sp.cfg.Trace)
		}
	}
	return out
}

type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// tracedRun is the per-layer measurement: spans around every call into
// a layer, a CPU-profiled loop whose passes alternate between untraced
// and traced (so drift in machine speed cancels out of the tracing
// overhead), and the layer probes. Run-level numbers come from the
// traced passes. It writes the spans and the profile to outDir and
// returns the metrics, the checker and the number of passes.
func tracedRun(w *workload, seed int64, seconds int, expected map[string]string, outDir string) ([]metric, *checker, int, error) {
	tr := newTracer()
	traces, loads, err := timeSetup(w, func(fn func()) time.Duration { return tr.timed("trace.load", fn) }, tracedSetupReps, tracedSetupSpan)
	if err != nil {
		return nil, nil, 0, err
	}
	specs := w.runs(traces, seed)
	used := distinct(specs)

	// Stage 1 of every run, called standalone on each distinct trace.
	// Every trace is used by equally many runs, so the mean over traces
	// is the mean per run.
	var estMS, inferMS float64
	for _, t := range used {
		var rates lossinfer.LinkRates
		estMS += ms(tr.timed("lossinfer.estimate", func() { rates = lossinfer.EstimateYajnik(t) }))
		var inferErr error
		inferMS += ms(tr.timed("lossinfer.infer", func() { _, inferErr = lossinfer.Infer(t, rates) }))
		if inferErr != nil {
			return nil, nil, 0, inferErr
		}
	}
	estMS /= float64(len(used))
	inferMS /= float64(len(used))

	chk := newChecker(len(specs), expected)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, 0, err
	}
	gc0 := readGC()
	hooks := tr.hooks()
	// No reference kernel here: it would enter the CPU profile.
	all, err := runLoop(specs, chk, loopConfig{seconds: seconds, minPasses: 4, hooksFor: func(pass int) *runHooks {
		if pass%2 == 1 {
			return hooks
		}
		return nil
	}})
	gc1 := readGC()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, 0, err
	}
	var passes, untraced []passResult
	for i, p := range all {
		if i%2 == 1 {
			passes = append(passes, p)
		} else {
			untraced = append(untraced, p)
		}
	}

	var simCost, floodCost, sessionCost, cacheCost, statsCost, codecCost cost
	var floods int
	var codecBytes float64
	var probeErr error
	tr.timed("probe.sim", func() { simCost = probeSim(used) })
	tr.timed("probe.netsim", func() { floodCost, floods = probeFlood(used) })
	tr.timed("probe.srm", func() { sessionCost = probeSession(used) })
	tr.timed("probe.core", func() { cacheCost = probeCache(used) })
	tr.timed("probe.stats", func() {
		events, err := captureEvents(specs[0])
		if err == nil {
			statsCost, err = probeStats(specs[0], events)
		}
		probeErr = err
	})
	if probeErr != nil {
		return nil, nil, 0, probeErr
	}
	tr.timed("probe.codec", func() { codecCost, codecBytes, probeErr = probeCodec(used) })
	if probeErr != nil {
		return nil, nil, 0, probeErr
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, 0, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	base := filepath.Join(outDir, w.name+"-seed"+strconv.FormatInt(seed, 10))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, nil, 0, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, 0, err
	}

	// Layer counters of one traced pass (identical in every pass).
	var x netsim.CrossingCounts
	var plans netsim.PlanStats
	var queueDrops, requests, replies, abandoned, expReq, expRep float64
	var virtual float64
	var srmNS, cesrmNS []float64
	for _, p := range passes {
		for i, r := range p.runs {
			if r == nil {
				continue
			}
			if specs[i].cfg.Protocol == experiment.SRM {
				srmNS = append(srmNS, float64(p.runNS[i]))
			} else {
				cesrmNS = append(cesrmNS, float64(p.runNS[i]))
			}
		}
	}
	for _, r := range passes[0].runs {
		if r == nil {
			continue
		}
		c := r.crossings
		x.Data += c.Data
		x.Session += c.Session
		x.PayloadMulticast += c.PayloadMulticast + c.PayloadSubcast + c.PayloadUnicast
		x.ControlMulticast += c.ControlMulticast + c.ControlSubcast
		x.ControlUnicast += c.ControlUnicast
		plans.Add(r.plans)
		queueDrops += float64(r.queueDrops)
		requests += float64(r.counts.Requests)
		replies += float64(r.counts.Replies)
		expReq += float64(r.counts.ExpRequests)
		expRep += float64(r.counts.ExpReplies)
		abandoned += float64(r.abandoned)
		virtual += r.virtualS
	}
	totalX := float64(x.Data + x.Session + x.RecoveryTotal())
	sort.Float64s(tr.ticks)
	planHit := 0.0
	if n := plans.Hits + plans.Misses; n > 0 {
		planHit = 100 * float64(plans.Hits) / float64(n)
	}
	gcPct := 0.0
	if d := gc1.totalCPU - gc0.totalCPU; d > 0 {
		gcPct = 100 * (gc1.gcCPU - gc0.gcCPU) / d
	}
	passNS := perPass(passes, func(p *passResult) float64 { return float64(p.totalRunNS()) })
	out := []metric{
		{"trace.load_s", "s", median(loads)},
		{"lossinfer.estimate_ms", "ms", estMS},
		{"lossinfer.infer_ms", "ms", inferMS},
		{"experiment.run_s.srm", "s", mean(srmNS) / 1e9},
		{"experiment.run_s.cesrm", "s", mean(cesrmNS) / 1e9},
		{"experiment.tick_ms_p50", "ms", percentile(tr.ticks, 0.50)},
		{"experiment.tick_ms_p99", "ms", percentile(tr.ticks, 0.99)},
		{"experiment.ticks", "count", float64(len(tr.ticks))},
		{"experiment.rx_pkts_per_host_s", "1/s", rxPkts(specs) / (passNS / 1e9)},
		{"experiment.ns_per_xing", "ns", passNS / totalX},
		{"experiment.mallocs_per_xing", "count", perPass(passes, func(p *passResult) float64 { return float64(p.mallocs) }) / totalX},
		{"sim.ns_per_event", "ns", simCost.nsPerOp()},
		{"sim.allocs_per_event", "count", simCost.allocsPerOp()},
		{"sim.virtual_s", "s", virtual},
		{"netsim.flood_ns_per_delivery", "ns", floodCost.nsPerOp()},
		{"netsim.flood_allocs", "count", floodCost.allocs / float64(floods)},
		{"netsim.xings.data", "count", float64(x.Data)},
		{"netsim.xings.session", "count", float64(x.Session)},
		{"netsim.xings.retx", "count", float64(x.PayloadMulticast)},
		{"netsim.xings.control_mcast", "count", float64(x.ControlMulticast)},
		{"netsim.xings.control_ucast", "count", float64(x.ControlUnicast)},
		{"netsim.queue_drops", "count", queueDrops},
		{"netsim.plan_hit_pct", "%", planHit},
		{"srm.session_ns_per_delivery", "ns", sessionCost.nsPerOp()},
		{"srm.session_allocs_per_delivery", "count", sessionCost.allocsPerOp()},
		{"srm.requests", "count", requests},
		{"srm.replies", "count", replies},
		{"srm.abandoned", "count", abandoned},
		{"core.cache_ns_per_op", "ns", cacheCost.nsPerOp()},
		{"core.exp_requests", "count", expReq},
		{"core.exp_replies", "count", expRep},
		{"stats.observe_ns_per_event", "ns", statsCost.nsPerOp()},
		{"netsim.codec_ns_per_pkt", "ns", codecCost.nsPerOp()},
		{"netsim.codec_bytes_per_pkt", "B", codecBytes},
	}
	for _, l := range cpuLayers {
		out = append(out, metric{"cpu_share." + l, "%", shares[l]})
	}
	out = append(out,
		metric{"runtime.gc_cpu_pct", "%", gcPct},
		metric{"runtime.gc_cycles", "count", float64(gc1.cycles - gc0.cycles)},
		metric{"trace_overhead_pct", "%", 100 * (passNS/perPass(untraced, func(p *passResult) float64 { return float64(p.totalRunNS()) }) - 1)},
	)
	return out, chk, len(all), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
