package main

import (
	"fmt"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/experiment"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// workload is one named set of inputs. Its traces are fixed (the paper's
// Table 1 catalog, or one generated wide trace); the benchmark seed
// drives the simulation randomness of every run, exactly as the -seed
// flag of cesrm-bench does. Varying the traces themselves with the seed
// would make the simulated end-to-end metrics of the single-trace
// wide-tree workload swing by tens of percent between seeds.
type workload struct {
	name string
	why  string
	// size describes the workload's size parameters for the run record.
	size string
	// load generates the workload's traces; it is the timed set-up.
	load func() ([]*trace.Trace, error)
	// runs lists the workload's simulations for one pass, in order.
	runs func(traces []*trace.Trace, seed int64) []runSpec
}

// runSpec is one simulation of a pass. Each workload lists the SRM and
// CESRM reenactments of one trace and fault scenario (a pair) adjacently,
// SRM first.
type runSpec struct {
	key string // unique within the workload: trace[/scenario]/protocol
	cfg experiment.RunConfig
}

var protocols = []experiment.Protocol{experiment.SRM, experiment.CESRM}

const (
	// paperScale reproduces the 28 scale-0.1 fingerprints committed in
	// the BENCH_*.json snapshots at seed 1.
	paperScale = 0.1
	// faultScale keeps a 336-run matrix pass near three seconds.
	faultScale = 0.01
	// hopMatrixNodes is the topology's dense hop-matrix cap; the
	// wide-tree workload must exceed it to take the LCA fallback.
	hopMatrixNodes = 1024
)

// wideSpec is the wide-tree trace: 800 receivers whose tree (1053
// nodes) exceeds the hop-matrix cap, a short fast stream, and loss
// concentrated on about 1% of the links in long bursts (the MBone
// locality CESRM exploits). Of the loss shapes tried, this one kept the
// single pair's simulated metrics steadiest across seeds.
var wideSpec = trace.GenSpec{
	Name:              "WIDE800",
	Topology:          topology.GenSpec{Receivers: 800, Depth: 8},
	NumPackets:        100,
	Period:            20 * time.Millisecond,
	TargetLosses:      8000,
	MeanBurstLen:      64,
	LossyLinkFraction: 0.01,
	Seed:              7919,
}

var workloads = []workload{
	{
		name: "paper-suite",
		why:  "the paper's evaluation: 14 Table 1 traces under SRM and CESRM; narrow trees, long streams, per-packet data and recovery path",
		size: fmt.Sprintf("14 catalog traces at scale %v x {SRM, CESRM} = 28 runs per pass, recovered-state release on", paperScale),
		load: func() ([]*trace.Trace, error) { return trace.LoadCatalog(paperScale) },
		runs: func(traces []*trace.Trace, seed int64) []runSpec {
			var out []runSpec
			for i, tr := range traces {
				for _, p := range protocols {
					out = append(out, runSpec{
						key: tr.Name + "/" + p.String(),
						cfg: experiment.RunConfig{
							Trace:            tr,
							Protocol:         p,
							Seed:             seed + int64(trace.Catalog[i].Index),
							ReleaseRecovered: true,
						},
					})
				}
			}
			return out
		},
	},
	{
		name: "wide-tree",
		why:  "one generated tree above the 1024-node hop-matrix cap: O(receivers^2) session exchange and ~1000-node fan-out dominate",
		size: fmt.Sprintf("1 generated trace (%d receivers, depth %d, %d packets every %v) x {SRM, CESRM} = 2 runs per pass, recovered-state release on",
			wideSpec.Topology.Receivers, wideSpec.Topology.Depth, wideSpec.NumPackets, wideSpec.Period),
		load: func() ([]*trace.Trace, error) {
			tr, err := trace.Generate(wideSpec)
			if err != nil {
				return nil, err
			}
			if n := tr.Tree.NumNodes(); n <= hopMatrixNodes {
				return nil, fmt.Errorf("wide-tree: %d nodes does not exceed the %d-node hop-matrix cap", n, hopMatrixNodes)
			}
			return []*trace.Trace{tr}, nil
		},
		runs: func(traces []*trace.Trace, seed int64) []runSpec {
			tr := traces[0]
			var out []runSpec
			for _, p := range protocols {
				out = append(out, runSpec{
					key: tr.Name + "/" + p.String(),
					cfg: experiment.RunConfig{Trace: tr, Protocol: p, Seed: seed, ReleaseRecovered: true},
				})
			}
			return out
		},
	},
	{
		name: "fault-matrix",
		why:  "the chaos scenario matrix over the 14 traces: recovery under crashes, restarts, flaps, churn and queue caps, release off",
		size: fmt.Sprintf("14 catalog traces at scale %v x 12 chaos scenarios x {SRM, CESRM} = 336 runs per pass, release off", faultScale),
		load: func() ([]*trace.Trace, error) { return trace.LoadCatalog(faultScale) },
		runs: func(traces []*trace.Trace, seed int64) []runSpec {
			warmup := 3 * srm.DefaultParams().SessionPeriod
			var out []runSpec
			for i, tr := range traces {
				horizon := warmup + time.Duration(tr.NumPackets())*tr.Period
				for _, spec := range chaos.Scenarios(tr.Tree, horizon) {
					for _, p := range protocols {
						out = append(out, runSpec{
							key: tr.Name + "/" + spec.Name + "/" + p.String(),
							cfg: experiment.RunConfig{
								Trace:    tr,
								Protocol: p,
								Seed:     seed + int64(trace.Catalog[i].Index),
								Chaos:    spec,
							},
						})
					}
				}
			}
			return out
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
