package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"cesrm/internal/experiment"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/stats"
)

// passResult is one pass over a workload's run list: every run in
// order, one simulation in flight (a closed loop with one client). It
// keeps only summaries, so a pass holds at most one finished run (the
// first of a pair) alive, as experiment.RunPair does.
type passResult struct {
	runs       []*runSummary // nil where the run failed
	pairs      []pairSummary
	runNS      []int64 // host ns inside experiment.Run per run, less kernel calls
	refNS      []int64 // host ns of each reference-kernel call
	mallocs    uint64
	allocBytes uint64
	peakHeap   uint64
}

// runSummary is what the benchmark reports of one run.
type runSummary struct {
	crossings  netsim.CrossingCounts
	plans      netsim.PlanStats
	queueDrops uint64
	counts     stats.HostCounts
	abandoned  int
	virtualS   float64
}

func summarize(res *experiment.RunResult) *runSummary {
	return &runSummary{
		crossings:  res.Crossings,
		plans:      res.PlanStats,
		queueDrops: res.QueueDrops,
		counts:     res.Collector.TotalCounts(),
		abandoned:  res.Abandoned,
		virtualS:   res.FinishedAt.Seconds(),
	}
}

// pairSummary holds one SRM/CESRM pair's simulated figures.
type pairSummary struct {
	latencyReduction float64
	expedited        float64
	expedites        bool // CESRM sent expedited requests at all
	srmX, cesrmX     uint64
}

func summarizePair(p *experiment.Pair) pairSummary {
	exp, ok := p.ExpeditedSuccess()
	return pairSummary{
		latencyReduction: p.LatencyReductionPct(),
		expedited:        exp,
		expedites:        ok,
		srmX:             p.SRM.Crossings.RecoveryTotal(),
		cesrmX:           p.CESRM.Crossings.RecoveryTotal(),
	}
}

// totalRunNS is the host time the pass spent inside experiment.Run.
func (p *passResult) totalRunNS() int64 {
	var s int64
	for _, ns := range p.runNS {
		s += ns
	}
	return s
}

// rxPkts counts trace packets times receivers over the pass's runs:
// the data deliveries the simulations reenacted.
func rxPkts(specs []runSpec) float64 {
	var s float64
	for _, sp := range specs {
		s += float64(sp.cfg.Trace.NumPackets() * sp.cfg.Trace.NumReceivers())
	}
	return s
}

// runHooks lets the traced run wrap each simulation in spans.
type runHooks struct {
	begin func(sp runSpec) // before experiment.Run
	tick  func()           // on every monitor tick (HeapProbe)
	end   func()           // after experiment.Run
}

// runPass executes one pass and checks each run with chk. With a
// reference kernel it calls the kernel before the first run, and then
// whenever refInterval has passed since the last call: between runs,
// and within a run on the runner's per-monitor-tick probe. A call within
// a run does not count as run time.
func runPass(specs []runSpec, chk *checker, hooks *runHooks, ref *refKernel) passResult {
	runtime.GC() // start every pass from the same heap state (untimed)
	out := passResult{runs: make([]*runSummary, len(specs)), runNS: make([]int64, len(specs))}
	var lastRef time.Time
	var inRun time.Duration // kernel time within the current run
	calibrate := func() time.Duration {
		if ref == nil || time.Since(lastRef) < refInterval {
			return 0
		}
		d := ref.run()
		out.refNS = append(out.refNS, d.Nanoseconds())
		lastRef = time.Now()
		return d
	}
	hs := startHeapSampler(20 * time.Millisecond)
	probe := func() { hs.Probe(); inRun += calibrate() }
	if hooks != nil {
		probe = func() { hs.Probe(); hooks.tick() }
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var first *experiment.RunResult // the pending pair's SRM run
	calibrate()
	for i, sp := range specs {
		cfg := sp.cfg
		cfg.HeapProbe = probe
		if hooks != nil {
			hooks.begin(sp)
		}
		inRun = 0
		start := time.Now()
		res, err := experiment.Run(cfg)
		out.runNS[i] = (time.Since(start) - inRun).Nanoseconds()
		calibrate()
		if hooks != nil {
			hooks.end()
		}
		if !chk.check(i, sp, res, err) {
			res = nil
		}
		if res != nil {
			out.runs[i] = summarize(res)
		}
		switch {
		case sp.cfg.Protocol == experiment.SRM:
			first = res
		case first != nil && res != nil:
			out.pairs = append(out.pairs, summarizePair(&experiment.Pair{Trace: sp.cfg.Trace, SRM: first, CESRM: res}))
		}
	}
	runtime.ReadMemStats(&m1)
	out.peakHeap = hs.Stop()
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return out
}

// loopConfig shapes a measurement loop.
type loopConfig struct {
	seconds int
	// minPasses is at least two, so that every run's fingerprint is
	// checked against a repeat of itself.
	minPasses int
	// hooksFor gives each pass its hooks (nil for an untraced pass).
	hooksFor func(pass int) *runHooks
	// ref, when not nil, is the reference kernel the passes interleave.
	ref *refKernel
	// afterPass, when not nil, runs after every pass.
	afterPass func() error
}

// runLoop repeats passes until the seconds have elapsed and at least
// minPasses ran.
func runLoop(specs []runSpec, chk *checker, lc loopConfig) ([]passResult, error) {
	var passes []passResult
	start := time.Now()
	for len(passes) < lc.minPasses || time.Since(start) < time.Duration(lc.seconds)*time.Second {
		var hooks *runHooks
		if lc.hooksFor != nil {
			hooks = lc.hooksFor(len(passes))
		}
		passes = append(passes, runPass(specs, chk, hooks, lc.ref))
		if lc.afterPass != nil {
			if err := lc.afterPass(); err != nil {
				return nil, err
			}
		}
	}
	return passes, nil
}

// checker applies the correctness checks to every run: experiment.Run
// must succeed (which includes the Stage 5 reliability check and the
// online validator's invariants), the engine must have completed, and
// the fingerprint must equal the first pass's fingerprint of the same
// run and, when expectations are loaded, the recorded one.
type checker struct {
	ref       []string
	expected  map[string]string
	attempted int
	failed    int
	problems  []string
}

func newChecker(n int, expected map[string]string) *checker {
	return &checker{ref: make([]string, n), expected: expected}
}

// check records one run's outcome and reports whether it passed.
func (c *checker) check(i int, sp runSpec, res *experiment.RunResult, err error) bool {
	c.attempted++
	problem := ""
	switch {
	case err != nil:
		problem = err.Error()
	case res.Status != sim.Completed:
		problem = "terminated " + res.Status.String()
	case c.ref[i] != "" && res.Fingerprint != c.ref[i]:
		problem = fmt.Sprintf("fingerprint %s differs from the first pass's %s", res.Fingerprint, c.ref[i])
	case c.expected != nil && res.Fingerprint != c.expected[sp.key]:
		problem = fmt.Sprintf("fingerprint %s differs from the recorded %q", res.Fingerprint, c.expected[sp.key])
	}
	if res != nil && err == nil && c.ref[i] == "" {
		c.ref[i] = res.Fingerprint
	}
	if problem == "" {
		return true
	}
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, sp.key+": "+problem)
	}
	return false
}

// heapSampler tracks the live-heap high-water mark of a pass, probed
// by a wall-clock ticker and by the runner's per-monitor-tick HeapProbe,
// as cesrm-bench does.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func readHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (s *heapSampler) Probe() {
	v := readHeapBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func startHeapSampler(interval time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Probe()
			}
		}
	}()
	return s
}

// Stop halts the ticker goroutine, waits for it to exit and returns
// the peak.
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	s.Probe()
	return s.peak.Load()
}

// median returns the median of xs (mean of the middle two on even
// counts); xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
