// Command perfbench is the repository benchmark. It reenacts one named
// workload (see workload.go) as a closed loop with one simulation in
// flight, checks every run for correctness, and prints its metrics by
// name and unit, ending with one JSON result line:
//
//	perfbench -workload paper-suite -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced loop;
// with -trace 1 it reports per-layer metrics from spans around the
// benchmark's own calls into each layer, a CPU profile of a traced loop
// and the layer probes, and writes the spans and the profile under -out.
// -workload all runs the three workloads in turn.
// Build and run it through run.sh, which keeps every artifact inside the
// repository's .bench_build directory. It exits 1 when any run fails a
// correctness check, and 2 when it cannot run at all.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cesrm/internal/trace"
)

// defaultSeed is the seed whose run fingerprints are recorded under
// perfbench/expected.
const defaultSeed = 1

// Set-up (trace generation) is repeated, each time after a forced GC,
// and the median is reported. The host's speed comes in phases: for
// seconds at a time a set-up of milliseconds takes half as long again.
// The untraced run therefore repeats set-up setupReps times before the
// loop and setupPerPass times after every pass, so that its median
// samples the whole measurement window rather than one phase. The
// traced run repeats it at least tracedSetupReps times and for at least
// tracedSetupSpan before its loop.
const (
	setupReps       = 5
	setupPerPass    = 3
	tracedSetupReps = 15
	tracedSetupSpan = time.Second
)

// timeSetup repeats the workload's set-up at least reps times and for
// at least span, timing each repetition with timed, and returns the
// traces and the durations in seconds.
func timeSetup(w *workload, timed func(fn func()) time.Duration, reps int, span time.Duration) ([]*trace.Trace, []float64, error) {
	var traces []*trace.Trace
	var secs []float64
	start := time.Now()
	for len(secs) < reps || time.Since(start) < span {
		runtime.GC()
		var err error
		secs = append(secs, timed(func() { traces, err = w.load() }).Seconds())
		if err != nil {
			return nil, nil, err
		}
	}
	return traces, secs, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// options are the command-line settings shared by every workload.
type options struct {
	seed            int64
	seconds, traced int
	outDir          string
	writeExp        bool
}

// outcome is one workload's result line.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]map[string]any
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-suite, wide-tree, fault-matrix, or all (each in turn; metric names in the result line then carry a workload/ prefix)")
	var o options
	fs.Int64Var(&o.seed, "seed", defaultSeed, "simulation seed")
	fs.IntVar(&o.seconds, "seconds", 30, "seconds to measure; the loop always completes at least two whole passes")
	fs.IntVar(&o.traced, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.outDir, "out", ".bench_build/out", "directory for the traced run's spans and CPU profile")
	fs.BoolVar(&o.writeExp, "write-expected", false, "record this default-seed run's fingerprints instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	var err error
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		var w *workload
		w, err = findWorkload(*name)
		ws = append(ws, w)
	}
	if err == nil && (o.traced != 0 && o.traced != 1 || o.seconds < 1) {
		err = errors.New("-trace must be 0 or 1 and -seconds at least 1")
	}
	if err == nil && o.writeExp && (o.seed != defaultSeed || o.traced != 0) {
		err = fmt.Errorf("-write-expected needs -seed %d -trace 0", defaultSeed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	total := outcome{correct: true, metrics: map[string]map[string]any{}}
	for _, w := range ws {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if len(ws) == 1 {
			total = res
			break
		}
		total.correct = total.correct && res.correct
		total.attempted += res.attempted
		total.failed += res.failed
		for k, v := range res.metrics {
			total.metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   total.correct,
		"attempted": total.attempted,
		"failed":    total.failed,
		"metrics":   total.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !total.correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload and prints its run record, passes,
// failures and metrics.
func runWorkload(w *workload, o options) (outcome, error) {
	var expected map[string]string
	expPath := filepath.Join("perfbench", "expected", w.name+".txt")
	if o.seed == defaultSeed && !o.writeExp {
		var err error
		if expected, err = readExpected(expPath); err != nil {
			return outcome{}, err
		}
	}

	fmt.Printf("record: workload=%s seed=%d seconds=%d trace=%d\n", w.name, o.seed, o.seconds, o.traced)
	fmt.Printf("record: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("record: size: %s\n", w.size)
	fmt.Println("record: concurrency: closed loop, one client, one simulation in flight; whole passes until the time is up, at least two")
	if expected != nil {
		fmt.Printf("record: fingerprints checked against %s and between passes\n", expPath)
	} else {
		fmt.Println("record: fingerprints checked between passes (no recorded expectations for this seed)")
	}

	var ms []metric
	var chk *checker
	passes := 0
	var err error
	if o.traced == 1 {
		ms, chk, passes, err = tracedRun(w, o.seed, o.seconds, expected, o.outDir)
	} else {
		var setup []float64
		var traces []*trace.Trace
		timer := func(fn func()) time.Duration {
			start := time.Now()
			fn()
			return time.Since(start)
		}
		traces, setup, err = timeSetup(w, timer, setupReps, 0)
		var loop []passResult
		var specs []runSpec
		if err == nil {
			specs = w.runs(traces, o.seed)
			chk = newChecker(len(specs), expected)
			loop, err = runLoop(specs, chk, loopConfig{seconds: o.seconds, minPasses: 2, ref: newRefKernel(), afterPass: func() error {
				_, more, err := timeSetup(w, timer, setupPerPass, 0)
				setup = append(setup, more...)
				return err
			}})
		}
		if err == nil {
			sorted := append([]float64(nil), setup...)
			sort.Float64s(sorted)
			fmt.Printf("setup: reps=%d min_s=%.6g median_s=%.6g max_s=%.6g\n", len(sorted), sorted[0], median(sorted), sorted[len(sorted)-1])
			passes = len(loop)
			rx := rxPkts(specs)
			for i := range loop {
				p := &loop[i]
				runNS := float64(p.totalRunNS())
				fmt.Printf("pass: %d run_s=%.4f ref_s=%.4f ref_calls=%d rx_pkts_per_host_s=%.6g mallocs=%d peak_heap_mb=%.2f\n",
					i, runNS/1e9, refSeconds(runNS, p.refNS), len(p.refNS), rx/(runNS/1e9), p.mallocs, float64(p.peakHeap)/1e6)
			}
			ms = endToEnd(specs, loop, setup)
			if o.writeExp && chk.failed == 0 {
				err = writeExpected(expPath, specs, chk.ref)
			}
		}
	}
	if err != nil {
		return outcome{}, err
	}

	for _, p := range chk.problems {
		fmt.Println("FAIL:", p)
	}
	fmt.Printf("runs: passes=%d attempted=%d failed=%d\n", passes, chk.attempted, chk.failed)
	if o.traced == 0 {
		// fail_pct is zero whenever the benchmark passes, so the result
		// line carries it as attempted and failed instead.
		fmt.Printf("metric: %s fail_pct = %.6g %%\n", w.name, 100*float64(chk.failed)/float64(chk.attempted))
	}
	out := outcome{correct: chk.failed == 0, attempted: chk.attempted, failed: chk.failed, metrics: map[string]map[string]any{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Printf("FAIL: metric %s is not finite\n", m.name)
			out.correct = false
			m.value = 0
		}
		fmt.Printf("metric: %s %s = %.6g %s\n", w.name, m.name, m.value, m.unit)
		out.metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out, nil
}

// readExpected loads recorded fingerprints: one "key fingerprint" line
// per run.
func readExpected(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recorded fingerprints: %w", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[f[0]] = f[1]
	}
	return out, nil
}

func writeExpected(path string, specs []runSpec, fps []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, sp := range specs {
		fmt.Fprintf(w, "%s %s\n", sp.key, fps[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel returns the processor model for the run record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
