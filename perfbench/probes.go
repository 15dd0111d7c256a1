package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// The layer probes call one layer's public functions directly, with
// inputs built from the workload being measured: its trees, its packet
// spacing, its loss patterns and a recorded event stream of one of its
// runs. Each probe spreads a fixed amount of work over the workload's
// distinct traces, so the per-operation cost weights every tree alike.
const (
	simProbeEvents       = 2_000_000
	floodProbeDeliveries = 2_000_000
	sessionProbeDeliv    = 1_000_000
	cacheProbeOps        = 1_000_000
	statsProbeEvents     = 500_000
	codecProbePackets    = 200_000
)

// cost is a probe's measured work: host time and heap allocations over
// ops operations.
type cost struct {
	ns, allocs, ops float64
}

func (c cost) nsPerOp() float64     { return c.ns / c.ops }
func (c cost) allocsPerOp() float64 { return c.allocs / c.ops }

// measure times fn, which returns how many operations it performed.
func measure(fn func() int) cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := fn()
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&m1)
	return cost{ns: float64(ns), allocs: float64(m1.Mallocs - m0.Mallocs), ops: float64(ops)}
}

// share splits total work evenly over n traces, at least 1 each.
func share(total, n int) int {
	if s := total / n; s > 0 {
		return s
	}
	return 1
}

func hostsOf(tree *topology.Tree) []topology.NodeID {
	return append([]topology.NodeID{tree.Root()}, tree.Receivers()...)
}

func noDrop(*netsim.Packet, topology.LinkID, bool) bool { return false }

// simTimer is a self-rescheduling engine timer whose delay is drawn
// uniformly from [spacing/2, 3*spacing/2) by a xorshift generator.
type simTimer struct {
	eng     *sim.Engine
	spacing uint64
	state   uint64
	fired   *int
	limit   int
}

func (t *simTimer) Fire(sim.Time) {
	*t.fired++
	if *t.fired >= t.limit {
		t.eng.Stop()
		return
	}
	t.state ^= t.state << 13
	t.state ^= t.state >> 7
	t.state ^= t.state << 17
	t.eng.ScheduleHandler(sim.Duration(t.spacing/2+t.state%t.spacing), t)
}

// probeSim schedules and dispatches events on a sim.Engine: one
// recurring timer per host of each tree, at the trace's packet spacing.
func probeSim(traces []*trace.Trace) cost {
	return measure(func() int {
		total := 0
		for _, tr := range traces {
			eng := sim.NewEngine()
			fired := 0
			n := len(hostsOf(tr.Tree))
			for i := 0; i < n; i++ {
				t := &simTimer{eng: eng, spacing: uint64(tr.Period), state: uint64(i)*0x9e3779b97f4a7c15 + 1, fired: &fired, limit: share(simProbeEvents, len(traces))}
				eng.ScheduleHandler(sim.Duration(t.state%t.spacing), t)
			}
			eng.Run()
			total += fired
		}
		return total
	})
}

type countingHost struct {
	n     *int
	inner netsim.Host
}

func (h countingHost) Deliver(now sim.Time, p *netsim.Packet) {
	*h.n++
	if h.inner != nil {
		h.inner.Deliver(now, p)
	}
}

// probeFlood multicasts data packets from every host of each tree in
// turn, with the flood-plan cache enabled as experiment.Run enables it,
// and counts deliveries. It returns the cost per delivery and the
// number of floods.
func probeFlood(traces []*trace.Trace) (perDelivery cost, floods int) {
	perDelivery = measure(func() int {
		delivered := 0
		for _, tr := range traces {
			eng := sim.NewEngine()
			net, err := netsim.New(eng, tr.Tree, netsim.DefaultConfig())
			if err != nil {
				panic(err)
			}
			net.EnableFloodPlans(0)
			net.SetDropFunc(noDrop)
			hosts := hostsOf(tr.Tree)
			for _, h := range hosts {
				net.AttachHost(h, countingHost{n: &delivered})
			}
			want := delivered + share(floodProbeDeliveries, len(traces))
			for f := 0; delivered < want; f++ {
				from := hosts[f%len(hosts)]
				net.Multicast(from, &netsim.Packet{Class: netsim.Payload, Msg: &srm.DataMsg{Source: from, Seq: f}})
				floods++
				if f%len(hosts) == len(hosts)-1 {
					eng.Run()
				}
			}
			eng.Run()
		}
		return delivered
	})
	return perDelivery, floods
}

// probeSession runs session-only SRM agents on each tree (the source
// has sent one packet, so session messages advertise one stream) for
// enough session periods to deliver the probe's share of session
// messages, and counts deliveries.
func probeSession(traces []*trace.Trace) cost {
	p := srm.DefaultParams()
	return measure(func() int {
		total := 0
		for _, tr := range traces {
			eng := sim.NewEngine()
			net, err := netsim.New(eng, tr.Tree, netsim.DefaultConfig())
			if err != nil {
				panic(err)
			}
			net.EnableFloodPlans(0)
			net.SetDropFunc(noDrop)
			hosts := hostsOf(tr.Tree)
			rng := sim.NewRNG(1)
			delivered := 0
			agents := make([]*srm.Agent, len(hosts))
			for i, h := range hosts {
				a, err := srm.NewAgent(eng, net, rng.Split(), h, p, srm.NopObserver{}, nil)
				if err != nil {
					panic(err)
				}
				net.AttachHost(h, countingHost{n: &delivered, inner: a})
				agents[i] = a
			}
			agents[0].Transmit(0)
			eng.Run()
			delivered = 0
			perPeriod := len(hosts) * (len(hosts) - 1)
			periods := (share(sessionProbeDeliv, len(traces)) + perPeriod - 1) / perPeriod
			for _, a := range agents {
				a.StartSessions()
			}
			eng.RunUntil(eng.Now().Add(time.Duration(periods) * p.SessionPeriod))
			for _, a := range agents {
				a.Stop()
			}
			total += delivered
		}
		return total
	})
}

// probeCache drives a CESRM cache with the requestor/replier tuples of
// each trace's lossy packets: every tuple is an Update plus a
// MostRecent lookup, and every 16th also invalidates its replier.
func probeCache(traces []*trace.Trace) cost {
	type input struct {
		tuples []core.Tuple
		span   int
	}
	var inputs []input
	for _, tr := range traces {
		net, err := netsim.New(sim.NewEngine(), tr.Tree, netsim.DefaultConfig())
		if err != nil {
			panic(err)
		}
		root, recv := tr.Tree.Root(), tr.Tree.Receivers()
		var tuples []core.Tuple
		var lost []int
		for seq := 0; seq < tr.NumPackets(); seq++ {
			lost = tr.LostReceivers(seq, lost[:0])
			if len(lost) == 0 {
				continue
			}
			req, rep := recv[lost[0]], root
			for ri, j := 0, 0; ri < len(recv); ri++ {
				if j < len(lost) && lost[j] == ri {
					j++
					continue
				}
				rep = recv[ri]
				break
			}
			tuples = append(tuples, core.Tuple{
				Seq:                    seq,
				Requestor:              req,
				ReqDistToSource:        net.Distance(req, root),
				Replier:                rep,
				ReplierDistToRequestor: net.Distance(rep, req),
				TurningPoint:           topology.None,
			})
		}
		if len(tuples) > 0 {
			inputs = append(inputs, input{tuples, tr.NumPackets()})
		}
	}
	return measure(func() int {
		ops := 0
		for _, in := range inputs {
			c, err := core.NewCache(core.DefaultCacheCapacity)
			if err != nil {
				panic(err)
			}
			want := ops + share(cacheProbeOps, len(inputs))
			for cycle := 0; ops < want; cycle++ {
				for i, t := range in.tuples {
					t.Seq += cycle * in.span
					c.Update(t)
					c.MostRecent()
					ops += 2
					if i%16 == 15 {
						c.InvalidateHost(t.Replier)
						ops++
					}
				}
			}
		}
		return ops
	})
}

// captureEvents reenacts one run with its event stream retained, as
// the stats probe's input.
func captureEvents(sp runSpec) ([]stats.Event, error) {
	cfg := sp.cfg
	cfg.KeepEvents = true
	res, err := experiment.Run(cfg)
	if err != nil {
		return nil, err
	}
	return res.Events, nil
}

// appendEvent serializes ev for the probe's digest, standing in for
// the run fingerprint's per-event hashing.
func appendEvent(b []byte, ev stats.Event) []byte {
	b = append(b, byte(ev.Kind))
	for _, v := range [...]int64{int64(ev.At), int64(ev.Host), int64(ev.Source), int64(ev.Seq), int64(ev.Round),
		int64(ev.OwnRequests), int64(ev.Reschedules), int64(ev.Requestor), int64(ev.Replier)} {
		b = binary.AppendVarint(b, v)
	}
	if ev.Expedited {
		return append(b, 1)
	}
	return append(b, 0)
}

// probeStats replays a recorded event stream through a Collector, a
// Validator and a digesting Recorder behind one stats.Tee, configured
// as experiment.Run configures them for the recorded run.
func probeStats(sp runSpec, events []stats.Event) (cost, error) {
	if len(events) == 0 {
		return cost{}, fmt.Errorf("stats probe: %s recorded no events", sp.key)
	}
	tree := sp.cfg.Trace.Tree
	net, err := netsim.New(sim.NewEngine(), tree, netsim.DefaultConfig())
	if err != nil {
		return cost{}, err
	}
	root := tree.Root()
	rtt := func(h topology.NodeID) time.Duration { return net.RTT(h, root) }
	var now sim.Time
	clock := func() sim.Time { return now }
	var verr error
	c := measure(func() int {
		done := 0
		var buf []byte
		for done < statsProbeEvents {
			col := stats.New()
			col.Reserve(tree.NumNodes())
			if sp.cfg.ReleaseRecovered {
				col.StreamAggregates(rtt)
			}
			val := stats.NewValidator()
			val.Reserve(tree.NumNodes())
			val.SetClock(clock)
			if sp.cfg.Chaos != nil {
				val.BoundExpFallback(12) // experiment.Run's bound for chaos runs
			}
			rec := stats.NewRecorder(clock)
			h := sha256.New()
			rec.SetSink(func(ev stats.Event) {
				buf = appendEvent(buf[:0], ev)
				h.Write(buf)
			})
			rec.SetKeep(false)
			tee := stats.Tee{col, val, rec}
			for _, ev := range events {
				now = ev.At
				switch ev.Kind {
				case stats.EventLossDetected:
					tee.LossDetected(ev.Host, ev.Source, ev.Seq, ev.At)
				case stats.EventRecovered:
					tee.Recovered(ev.Host, ev.Source, ev.Seq, ev.At, srm.RecoveryInfo{
						Expedited: ev.Expedited, Requestor: ev.Requestor, Replier: ev.Replier,
						OwnRequests: ev.OwnRequests, Reschedules: ev.Reschedules,
					})
				case stats.EventRequestSent:
					tee.RequestSent(ev.Host, ev.Source, ev.Seq, ev.Round)
				case stats.EventExpRequestSent:
					tee.ExpRequestSent(ev.Host, ev.Source, ev.Seq)
				case stats.EventReplySent:
					tee.ReplySent(ev.Host, ev.Source, ev.Seq, ev.Expedited)
				case stats.EventSessionSent:
					tee.SessionSent(ev.Host)
				case stats.EventRequestAbandoned:
					tee.RequestAbandoned(ev.Host, ev.Source, ev.Seq, ev.Round)
				}
			}
			h.Sum(nil)
			done += len(events)
			if verr == nil {
				verr = val.Err()
			}
		}
		return done
	})
	if verr != nil {
		return cost{}, fmt.Errorf("stats probe: replay of %s broke an invariant: %w", sp.key, verr)
	}
	return c, nil
}

// codecPackets builds the wire packets of one trace: every data
// packet, a request and a reply per lossy packet, and a session
// message from every host.
func codecPackets(tr *trace.Trace) []*netsim.Packet {
	tree := tr.Tree
	root, recv := tree.Root(), tree.Receivers()
	var out []*netsim.Packet
	var id uint64
	add := func(from, to topology.NodeID, class netsim.Class, mode netsim.Mode, session bool, msg any) {
		id++
		out = append(out, &netsim.Packet{ID: id, From: from, To: to, Class: class, Mode: mode, Session: session, Msg: msg})
	}
	var lost []int
	for seq := 0; seq < tr.NumPackets(); seq++ {
		add(root, topology.None, netsim.Payload, netsim.ModeMulticast, false, &srm.DataMsg{Source: root, Seq: seq})
		lost = tr.LostReceivers(seq, lost[:0])
		if len(lost) == 0 {
			continue
		}
		req := recv[lost[0]]
		add(req, topology.None, netsim.Control, netsim.ModeMulticast, false,
			&srm.RequestMsg{Source: root, Seq: seq, Requestor: req, ReqDistToSource: 60 * time.Millisecond, TurningPoint: topology.None})
		add(root, topology.None, netsim.Payload, netsim.ModeMulticast, false,
			&srm.ReplyMsg{Source: root, Seq: seq, Replier: root, Requestor: req, ReqDistToSource: 60 * time.Millisecond, ReplierDistToRequestor: 60 * time.Millisecond})
	}
	for _, h := range hostsOf(tree) {
		add(h, topology.None, netsim.Control, netsim.ModeMulticast, true,
			&srm.SessionMsg{From: h, SentAt: sim.Time(time.Second), Highest: map[topology.NodeID]int{root: tr.NumPackets() - 1}})
	}
	return out
}

// probeCodec round-trips each trace's wire packets through
// EncodePacket and DecodePacket. It returns the cost per packet and
// the mean encoded size.
func probeCodec(traces []*trace.Trace) (cost, float64, error) {
	var sets [][]*netsim.Packet
	for _, tr := range traces {
		sets = append(sets, codecPackets(tr))
	}
	var bytes int
	var cerr error
	c := measure(func() int {
		n := 0
		buf := make([]byte, 0, 256)
		for _, pkts := range sets {
			want := n + share(codecProbePackets, len(sets))
			for n < want {
				for _, p := range pkts {
					var err error
					buf, err = netsim.EncodePacket(buf[:0], p)
					if err == nil {
						_, err = netsim.DecodePacket(buf)
					}
					if err != nil && cerr == nil {
						cerr = err
					}
					bytes += len(buf)
					n++
					if n == want {
						break
					}
				}
			}
		}
		return n
	})
	if cerr != nil {
		return cost{}, 0, fmt.Errorf("codec probe: %w", cerr)
	}
	return c, float64(bytes) / c.ops, nil
}
