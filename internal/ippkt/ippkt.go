// Package ippkt implements the minimal IPv4, UDP and TCP-segment
// headers the PortLand experiments transport. Wire layouts are the
// real ones (including checksums) so traces and codec tests are
// byte-accurate, but options and fragmentation are not modelled — the
// fabric forwards on Ethernet headers only and never inspects these.
package ippkt

import (
	"fmt"
	"net/netip"

	"portland/internal/ether"
)

// Protocol numbers used by the experiments.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// IPv4HeaderLen is the length of an option-less IPv4 header.
const IPv4HeaderLen = 20

// IPv4 is an option-less IPv4 packet.
type IPv4 struct {
	TOS       uint8  // DSCP/ECN byte
	ID        uint16 // identification
	FlagsFrag uint16 // flags (3 bits) + fragment offset
	TTL       uint8
	Protocol  uint8
	Src, Dst  netip.Addr
	Payload   ether.Payload
}

// WireSize implements ether.Payload.
func (p *IPv4) WireSize() int {
	n := IPv4HeaderLen
	if p.Payload != nil {
		n += p.Payload.WireSize()
	}
	return n
}

// AppendTo implements ether.Payload. The header checksum is computed.
func (p *IPv4) AppendTo(b []byte) []byte {
	start := len(b)
	total := p.WireSize()
	b = append(b, 0x45, p.TOS) // version 4, IHL 5
	b = append(b, byte(total>>8), byte(total))
	b = append(b, byte(p.ID>>8), byte(p.ID), byte(p.FlagsFrag>>8), byte(p.FlagsFrag))
	b = append(b, p.TTL, p.Protocol, 0, 0)
	src, dst := p.Src.As4(), p.Dst.As4()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	sum := Checksum(b[start:start+IPv4HeaderLen], 0)
	b[start+10] = byte(sum >> 8)
	b[start+11] = byte(sum)
	if p.Payload != nil {
		b = p.Payload.AppendTo(b)
	}
	return b
}

// ParseIPv4 decodes an IPv4 header; the payload is returned raw.
func ParseIPv4(b []byte) (*IPv4, error) {
	if len(b) < IPv4HeaderLen {
		return nil, fmt.Errorf("parsing ipv4 of %d bytes: %w", len(b), ether.ErrTruncated)
	}
	if b[0]>>4 != 4 {
		return nil, fmt.Errorf("ippkt: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("ippkt: bad IHL %d", ihl)
	}
	total := int(uint16(b[2])<<8 | uint16(b[3]))
	if total < ihl || total > len(b) {
		return nil, fmt.Errorf("ippkt: bad total length %d (buffer %d)", total, len(b))
	}
	if Checksum(b[:ihl], 0) != 0 {
		return nil, fmt.Errorf("ippkt: bad header checksum")
	}
	p := &IPv4{
		TOS:       b[1],
		ID:        uint16(b[4])<<8 | uint16(b[5]),
		FlagsFrag: uint16(b[6])<<8 | uint16(b[7]),
		TTL:       b[8],
		Protocol:  b[9],
		Src:       netip.AddrFrom4([4]byte(b[12:16])),
		Dst:       netip.AddrFrom4([4]byte(b[16:20])),
	}
	payload := make(ether.Raw, total-ihl)
	copy(payload, b[ihl:total])
	p.Payload = payload
	return p, nil
}

// Checksum computes the RFC 1071 Internet checksum of b folded into
// initial (pass 0 when starting fresh).
func Checksum(b []byte, initial uint32) uint16 {
	sum := initial
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP datagram.
type UDP struct {
	SrcPort, DstPort uint16
	// Checksum is carried verbatim (zero = not computed, legal over
	// IPv4; the simulator never corrupts frames).
	Checksum uint16
	Payload  ether.Payload
}

// WireSize implements ether.Payload.
func (u *UDP) WireSize() int {
	n := UDPHeaderLen
	if u.Payload != nil {
		n += u.Payload.WireSize()
	}
	return n
}

// AppendTo implements ether.Payload.
func (u *UDP) AppendTo(b []byte) []byte {
	n := u.WireSize()
	b = append(b, byte(u.SrcPort>>8), byte(u.SrcPort), byte(u.DstPort>>8), byte(u.DstPort))
	b = append(b, byte(n>>8), byte(n), byte(u.Checksum>>8), byte(u.Checksum))
	if u.Payload != nil {
		b = u.Payload.AppendTo(b)
	}
	return b
}

// udpDatagram is an IPv4 header and the UDP header it carries,
// allocated together: a sent datagram is one heap object, its two
// layers interior pointers into it.
type udpDatagram struct {
	ip  IPv4
	udp UDP
}

// NewUDP builds a UDP datagram of n zero bytes from (src, sport) to
// (dst, dport), TTL 64, as one heap object. The packet is immutable
// once built: a sender that repeats itself builds it once and hands
// the same pointer to every send.
func NewUDP(src, dst netip.Addr, sport, dport uint16, n int) *IPv4 {
	d := &udpDatagram{
		ip:  IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst},
		udp: UDP{SrcPort: sport, DstPort: dport, Payload: ether.Zeros(n)},
	}
	d.ip.Payload = &d.udp
	return &d.ip
}

// ParseUDP decodes a UDP datagram.
func ParseUDP(b []byte) (*UDP, error) {
	if len(b) < UDPHeaderLen {
		return nil, fmt.Errorf("parsing udp of %d bytes: %w", len(b), ether.ErrTruncated)
	}
	u := &UDP{
		SrcPort:  uint16(b[0])<<8 | uint16(b[1]),
		DstPort:  uint16(b[2])<<8 | uint16(b[3]),
		Checksum: uint16(b[6])<<8 | uint16(b[7]),
	}
	n := int(uint16(b[4])<<8 | uint16(b[5]))
	if n != len(b) {
		// The enclosing IP layer already trimmed to its total length;
		// a UDP length disagreeing with it is non-canonical.
		return nil, fmt.Errorf("ippkt: udp length %d does not match buffer %d", n, len(b))
	}
	payload := make(ether.Raw, n-UDPHeaderLen)
	copy(payload, b[UDPHeaderLen:n])
	u.Payload = payload
	return u, nil
}

// TCP flags.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// TCPHeaderLen is the length of an option-less TCP header.
const TCPHeaderLen = 20

// TCPSegment is an option-less TCP segment.
type TCPSegment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	// Checksum and Urgent are carried verbatim (see UDP.Checksum).
	Checksum, Urgent uint16
	Payload          ether.Payload
}

// WireSize implements ether.Payload.
func (s *TCPSegment) WireSize() int {
	n := TCPHeaderLen
	if s.Payload != nil {
		n += s.Payload.WireSize()
	}
	return n
}

// AppendTo implements ether.Payload.
func (s *TCPSegment) AppendTo(b []byte) []byte {
	b = append(b, byte(s.SrcPort>>8), byte(s.SrcPort), byte(s.DstPort>>8), byte(s.DstPort))
	b = append(b, byte(s.Seq>>24), byte(s.Seq>>16), byte(s.Seq>>8), byte(s.Seq))
	b = append(b, byte(s.Ack>>24), byte(s.Ack>>16), byte(s.Ack>>8), byte(s.Ack))
	b = append(b, 5<<4, s.Flags, byte(s.Window>>8), byte(s.Window))
	b = append(b, byte(s.Checksum>>8), byte(s.Checksum), byte(s.Urgent>>8), byte(s.Urgent))
	if s.Payload != nil {
		b = s.Payload.AppendTo(b)
	}
	return b
}

// ParseTCP decodes a TCP segment.
func ParseTCP(b []byte) (*TCPSegment, error) {
	if len(b) < TCPHeaderLen {
		return nil, fmt.Errorf("parsing tcp of %d bytes: %w", len(b), ether.ErrTruncated)
	}
	// Options and the reserved bits are not modelled: require the
	// canonical option-less header so parse→marshal is lossless.
	if b[12] != 5<<4 {
		return nil, fmt.Errorf("ippkt: unsupported tcp offset/reserved byte %#x", b[12])
	}
	const off = TCPHeaderLen
	s := &TCPSegment{
		SrcPort:  uint16(b[0])<<8 | uint16(b[1]),
		DstPort:  uint16(b[2])<<8 | uint16(b[3]),
		Seq:      uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
		Ack:      uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11]),
		Flags:    b[13],
		Window:   uint16(b[14])<<8 | uint16(b[15]),
		Checksum: uint16(b[16])<<8 | uint16(b[17]),
		Urgent:   uint16(b[18])<<8 | uint16(b[19]),
	}
	payload := make(ether.Raw, len(b)-off)
	copy(payload, b[off:])
	s.Payload = payload
	return s, nil
}

// HasFlag reports whether the segment carries flag f.
func (s *TCPSegment) HasFlag(f uint8) bool { return s.Flags&f != 0 }

// String summarizes the segment for traces.
func (s *TCPSegment) String() string {
	fl := ""
	for _, p := range []struct {
		f uint8
		s string
	}{{FlagSYN, "S"}, {FlagACK, "."}, {FlagFIN, "F"}, {FlagRST, "R"}, {FlagPSH, "P"}} {
		if s.HasFlag(p.f) {
			fl += p.s
		}
	}
	n := 0
	if s.Payload != nil {
		n = s.Payload.WireSize()
	}
	return fmt.Sprintf("tcp %d->%d seq=%d ack=%d [%s] len=%d", s.SrcPort, s.DstPort, s.Seq, s.Ack, fl, n)
}
