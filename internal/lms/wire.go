package lms

import "cesrm/internal/netsim"

// Stable wire identifiers for LMS's message types (the 1–7 range is
// reserved for SRM/CESRM). Never renumber.
const (
	// WireNAK identifies NAKMsg.
	WireNAK netsim.MsgType = 8
	// WireRepair identifies RepairMsg.
	WireRepair netsim.MsgType = 9
)

func init() {
	netsim.RegisterMessage(WireNAK, (*NAKMsg)(nil), netsim.MsgCodec{
		Name: "lms.NAKMsg",
		Encode: func(e netsim.Encoder, msg any) netsim.Encoder {
			m := msg.(*NAKMsg)
			e.Int(m.Seq)
			e.Node(m.Requestor)
			e.Node(m.TurningPoint)
			e.Node(m.OriginChild)
			return e
		},
		Decode: func(d *netsim.Decoder) any {
			return &NAKMsg{
				Seq:          d.Int(),
				Requestor:    d.Node(),
				TurningPoint: d.Node(),
				OriginChild:  d.Node(),
			}
		},
	})
	netsim.RegisterMessage(WireRepair, (*RepairMsg)(nil), netsim.MsgCodec{
		Name: "lms.RepairMsg",
		Encode: func(e netsim.Encoder, msg any) netsim.Encoder {
			m := msg.(*RepairMsg)
			e.Int(m.Seq)
			e.Node(m.Replier)
			e.Node(m.Requestor)
			return e
		},
		Decode: func(d *netsim.Decoder) any {
			return &RepairMsg{
				Seq:       d.Int(),
				Replier:   d.Node(),
				Requestor: d.Node(),
			}
		},
	})
}
