package via

import (
	"fmt"

	"vibe/internal/nicsim"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// pktKind discriminates wire packets.
type pktKind int

const (
	pktData pktKind = iota
	pktAck
	pktErrAck
	pktRdmaWrite
	pktRdmaReadReq
	pktRdmaReadResp
	pktConnReq
	pktConnAccept
	pktConnReject
	pktDisconnect
)

func (k pktKind) String() string {
	switch k {
	case pktData:
		return "data"
	case pktAck:
		return "ack"
	case pktErrAck:
		return "err-ack"
	case pktRdmaWrite:
		return "rdma-write"
	case pktRdmaReadReq:
		return "rdma-read-req"
	case pktRdmaReadResp:
		return "rdma-read-resp"
	case pktConnReq:
		return "conn-req"
	case pktConnAccept:
		return "conn-accept"
	case pktConnReject:
		return "conn-reject"
	case pktDisconnect:
		return "disconnect"
	}
	return fmt.Sprintf("pkt(%d)", int(k))
}

// Per-packet wire header sizes (bytes), included in serialization time.
const (
	dataHeaderBytes = 32
	connPktBytes    = 64
)

// wirePacket is the payload the NIC engines exchange over the fabric.
type wirePacket struct {
	kind  pktKind
	srcVi int
	dstVi int

	// Data / RDMA fields.
	seq      uint64 // reliability sequence (reliable connections)
	hasSeq   bool
	msgID    uint64
	frag     nicsim.Fragment
	msgTotal int
	data     []byte // snapshot of the fragment payload; nil for a zero range

	immediate    uint32
	hasImmediate bool

	// RDMA fields.
	remoteAddr   vmem.Addr
	remoteHandle MemHandle
	readReq      uint64 // read request id (request and its responses)

	// Ack fields.
	ackSeq uint64
	errSts Status // for pktErrAck: status to force on the affected message
	errMsg uint64 // msgID the error refers to

	// Connection-management fields.
	disc        string
	reliability ReliabilityLevel
	reqID       uint64 // connection request id

	// Span carriage: the sampled message's span, if any, and the virtual
	// time Nic.send last put this packet on the wire (restamped on
	// retransmit, so wire time covers the attempt that arrived).
	span   *msgSpan
	sentAt sim.Time
}

// wireSize reports the bytes the packet occupies on the wire (payload plus
// protocol header, before fabric framing).
func (p *wirePacket) wireSize(ackBytes int) int {
	switch p.kind {
	case pktData, pktRdmaWrite, pktRdmaReadResp:
		return dataHeaderBytes + p.frag.Size
	case pktAck, pktErrAck:
		return ackBytes
	case pktRdmaReadReq:
		return dataHeaderBytes
	default:
		return connPktBytes
	}
}
