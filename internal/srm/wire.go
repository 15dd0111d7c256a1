package srm

import (
	"slices"

	"cesrm/internal/netsim"
	"cesrm/internal/topology"
)

// Stable wire identifiers for SRM's message types. These are part of
// the cesrm-node wire format (netsim.CodecVersion); never renumber.
const (
	// WireData identifies DataMsg.
	WireData netsim.MsgType = 1
	// WireSession identifies SessionMsg.
	WireSession netsim.MsgType = 2
	// WireRequest identifies RequestMsg.
	WireRequest netsim.MsgType = 3
	// WireReply identifies ReplyMsg.
	WireReply netsim.MsgType = 4
)

func init() {
	netsim.RegisterMessage(WireData, (*DataMsg)(nil), netsim.MsgCodec{
		Name: "srm.DataMsg",
		Encode: func(e netsim.Encoder, msg any) netsim.Encoder {
			m := msg.(*DataMsg)
			e.Node(m.Source)
			e.Int(m.Seq)
			return e
		},
		Decode: func(d *netsim.Decoder) any {
			return &DataMsg{Source: d.Node(), Seq: d.Int()}
		},
	})
	netsim.RegisterMessage(WireSession, (*SessionMsg)(nil), netsim.MsgCodec{
		Name:   "srm.SessionMsg",
		Encode: encodeSession,
		Decode: decodeSession,
	})
	netsim.RegisterMessage(WireRequest, (*RequestMsg)(nil), netsim.MsgCodec{
		Name: "srm.RequestMsg",
		Encode: func(e netsim.Encoder, msg any) netsim.Encoder {
			m := msg.(*RequestMsg)
			e.Node(m.Source)
			e.Int(m.Seq)
			e.Node(m.Requestor)
			e.Duration(m.ReqDistToSource)
			e.Bool(m.Expedited)
			e.Node(m.TurningPoint)
			return e
		},
		Decode: func(d *netsim.Decoder) any {
			return &RequestMsg{
				Source:          d.Node(),
				Seq:             d.Int(),
				Requestor:       d.Node(),
				ReqDistToSource: d.Duration(),
				Expedited:       d.Bool(),
				TurningPoint:    d.Node(),
			}
		},
	})
	netsim.RegisterMessage(WireReply, (*ReplyMsg)(nil), netsim.MsgCodec{
		Name: "srm.ReplyMsg",
		Encode: func(e netsim.Encoder, msg any) netsim.Encoder {
			m := msg.(*ReplyMsg)
			e.Node(m.Source)
			e.Int(m.Seq)
			e.Node(m.Replier)
			e.Node(m.Requestor)
			e.Duration(m.ReqDistToSource)
			e.Duration(m.ReplierDistToRequestor)
			e.Bool(m.Expedited)
			return e
		},
		Decode: func(d *netsim.Decoder) any {
			return &ReplyMsg{
				Source:                 d.Node(),
				Seq:                    d.Int(),
				Replier:                d.Node(),
				Requestor:              d.Node(),
				ReqDistToSource:        d.Duration(),
				ReplierDistToRequestor: d.Duration(),
				Expedited:              d.Bool(),
			}
		},
	})
}

// encodeSession writes a SessionMsg with both maps in sorted key order,
// so the same message always encodes to the same bytes — the property
// the wire mode's conformance oracle relies on. A nil map encodes as
// length zero; decode returns nil for length zero, so decode∘encode is
// idempotent even though encode(nil) == encode(empty).
func encodeSession(e netsim.Encoder, msg any) netsim.Encoder {
	m := msg.(*SessionMsg)
	e.Node(m.From)
	e.Time(m.SentAt)
	var buf [8]topology.NodeID
	e.Uvarint(uint64(len(m.Highest)))
	for _, k := range appendSortedNodeKeys(buf[:0], m.Highest) {
		e.Node(k)
		e.Int(m.Highest[k])
	}
	e.Uvarint(uint64(len(m.Echoes)))
	for _, k := range appendSortedNodeKeys(buf[:0], m.Echoes) {
		e.Node(k)
		echo := m.Echoes[k]
		e.Time(echo.PeerSentAt)
		e.Duration(echo.HeldFor)
	}
	return e
}

func decodeSession(d *netsim.Decoder) any {
	m := &SessionMsg{From: d.Node(), SentAt: d.Time()}
	if n := d.Len(); n > 0 {
		m.Highest = make(map[topology.NodeID]int, n)
		prev := topology.None
		for i := 0; i < n; i++ {
			k := d.Node()
			if k <= prev {
				d.Fail("srm: session Highest keys not strictly ascending")
				return m
			}
			prev = k
			m.Highest[k] = d.Int()
		}
	}
	if n := d.Len(); n > 0 {
		m.Echoes = make(map[topology.NodeID]Echo, n)
		prev := topology.None
		for i := 0; i < n; i++ {
			k := d.Node()
			if k <= prev {
				d.Fail("srm: session Echoes keys not strictly ascending")
				return m
			}
			prev = k
			m.Echoes[k] = Echo{PeerSentAt: d.Time(), HeldFor: d.Duration()}
		}
	}
	return m
}

// appendSortedNodeKeys appends m's keys to dst in ascending order and
// returns the extended slice. Callers pass a stack array's empty slice
// (buf[:0]) so that a message advertising up to len(buf) keys — the
// common one-source case included — sorts without heap allocation.
func appendSortedNodeKeys[V any](dst []topology.NodeID, m map[topology.NodeID]V) []topology.NodeID {
	n := len(dst)
	// order-insensitive: the appended keys are sorted before use.
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}
