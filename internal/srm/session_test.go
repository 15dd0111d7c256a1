package srm

import (
	"slices"
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// starTree is 0 -> {1, 2, 3, 4}: every host can be a stream source and
// every other host a receiver of it.
func starTree() *topology.Tree {
	return topology.MustNew([]topology.NodeID{topology.None, 0, 0, 0, 0})
}

// sessionFrom builds a one-way-distance session message from host 0
// sent at now minus the true 0 -> to distance.
func (f *fixture) sessionFrom(now sim.Time, to topology.NodeID, highest map[topology.NodeID]int) *netsim.Packet {
	return &netsim.Packet{Class: netsim.Control, Session: true, Msg: &SessionMsg{
		From:    0,
		SentAt:  now.Add(-f.net.Distance(0, to)),
		Highest: highest,
	}}
}

// TestSessionDetectionOrderIsAscending delivers a session message
// advertising three unseen sources to a fresh agent and checks that the
// deferred detections, and the request timers they arm, fire source by
// source in ascending NodeID order whatever the advertising map's
// insertion order. Go randomizes map iteration, so the delivery is
// repeated to give an order leak many chances to show.
func TestSessionDetectionOrderIsAscending(t *testing.T) {
	literals := []map[topology.NodeID]int{
		{1: 2, 2: 1, 3: 3},
		{3: 3, 1: 2, 2: 1},
		{2: 1, 3: 3, 1: 2},
	}
	bySourceSeq := func(x, y event) int {
		if x.src != y.src {
			return int(x.src) - int(y.src)
		}
		return x.seq - y.seq
	}
	var wantDet, wantReq []event
	for rep := 0; rep < 50; rep++ {
		f := newFixture(t, starTree(), detParams())
		a := f.agents[4]
		highest := literals[rep%len(literals)]
		sent := sim.Time(100 * time.Millisecond)
		f.eng.ScheduleAt(sent, func(now sim.Time) { a.Deliver(now, f.sessionFrom(now, 4, highest)) })
		// The sources never sent the advertised packets, so requests go
		// unanswered and back off; a bounded run keeps the first rounds.
		f.eng.RunUntil(sent.Add(5 * time.Second))

		det := f.log.detections
		var req []event
		for _, r := range f.log.requests {
			if r.round == 1 {
				req = append(req, r)
			}
		}
		if len(det) != 3+2+4 || len(req) != len(det) {
			t.Fatalf("rep %d: %d detections and %d first-round requests, want 9 each", rep, len(det), len(req))
		}
		if !slices.IsSortedFunc(det, bySourceSeq) || !slices.IsSortedFunc(req, bySourceSeq) {
			t.Fatalf("rep %d: not in ascending (source, seq) order:\ndetections %v\nrequests %v", rep, det, req)
		}
		if rep == 0 {
			wantDet, wantReq = det, req
		} else if !slices.Equal(det, wantDet) || !slices.Equal(req, wantReq) {
			t.Fatalf("rep %d: detections %v / requests %v differ from rep 0's %v / %v", rep, det, req, wantDet, wantReq)
		}
	}
}

// caughtUp returns host 4 of a star fixture holding seqs 0..last of each
// listed source, so that a session advertising at most last for those
// sources detects nothing new.
func caughtUp(t testing.TB, last int, sources ...topology.NodeID) (*fixture, *Agent) {
	t.Helper()
	f := newFixture(t, starTree(), detParams())
	a := f.agents[4]
	for _, src := range sources {
		for seq := 0; seq <= last; seq++ {
			a.Deliver(0, &netsim.Packet{Class: netsim.Payload, Msg: &DataMsg{Source: src, Seq: seq}})
		}
	}
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("caught-up agent has %d outstanding losses", got)
	}
	return f, a
}

// TestSessionDeliverAllocationFree pins the receive path of a session
// message that schedules no new detection: sorting the advertised
// sources must not touch the heap.
func TestSessionDeliverAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		highest map[topology.NodeID]int
	}{
		{"one source", map[topology.NodeID]int{0: 9}},
		{"three sources", map[topology.NodeID]int{0: 9, 1: 7, 2: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, a := caughtUp(t, 9, 0, 1, 2)
			now := sim.Time(time.Second)
			p := f.sessionFrom(now, 4, tc.highest)
			allocs := testing.AllocsPerRun(100, func() { a.Deliver(now, p) })
			if allocs != 0 {
				t.Fatalf("session delivery allocates %.1f objects, want 0", allocs)
			}
			if f.eng.Pending() != 0 {
				t.Fatalf("caught-up delivery scheduled %d events", f.eng.Pending())
			}
		})
	}
}

// TestEncodeSessionAllocationFree pins the session codec: encoding into
// a buffer with room to spare must not allocate.
func TestEncodeSessionAllocationFree(t *testing.T) {
	p := &netsim.Packet{Class: netsim.Control, Session: true, Msg: &SessionMsg{
		From:    2,
		SentAt:  sim.Time(3 * time.Second),
		Highest: map[topology.NodeID]int{0: 900, 5: 12, 3: 40},
		Echoes: map[topology.NodeID]Echo{
			7: {PeerSentAt: sim.Time(2 * time.Second), HeldFor: 5 * time.Millisecond},
			1: {PeerSentAt: sim.Time(time.Second), HeldFor: time.Millisecond},
		},
	}}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := netsim.EncodePacket(buf[:0], p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodePacket(session) allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkSessionDeliver measures the srm layer's session receive path:
// one three-source advertisement delivered to a caught-up agent.
func BenchmarkSessionDeliver(b *testing.B) {
	f, a := caughtUp(b, 9, 0, 1, 2)
	now := sim.Time(time.Second)
	p := f.sessionFrom(now, 4, map[topology.NodeID]int{0: 9, 1: 7, 2: 9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Deliver(now, p)
	}
}
