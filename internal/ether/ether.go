// Package ether models Ethernet framing for the PortLand fabric.
//
// The simulator moves typed *Frame values between nodes for speed, but
// every frame and payload can be marshalled to and parsed from the
// exact on-the-wire byte layout (14-byte Ethernet II header, payload,
// implicit FCS accounted for in WireSize). The codec is what the
// real-transport control plane and the tests exercise.
package ether

import (
	"errors"
	"fmt"
)

// AddrLen is the length of a MAC address in bytes.
const AddrLen = 6

// HeaderLen is the length of an Ethernet II header (dst, src, ethertype).
const HeaderLen = 14

// MinFrameLen is the minimum Ethernet frame size on the wire,
// including the 4-byte FCS. Shorter frames are padded.
const MinFrameLen = 64

// FCSLen is the length of the trailing frame check sequence.
const FCSLen = 4

// Addr is a 48-bit MAC address.
type Addr [AddrLen]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Zero is the all-zero address, used as "unknown" in ARP targets.
var Zero = Addr{}

// String renders the address in the usual colon-separated hex form.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// IsBroadcast reports whether a is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// IsMulticast reports whether the group bit (I/G) is set and the
// address is not broadcast.
func (a Addr) IsMulticast() bool { return a[0]&1 == 1 && !a.IsBroadcast() }

// IsZero reports whether a is the all-zero address.
func (a Addr) IsZero() bool { return a == Zero }

// ParseAddr parses a colon-separated MAC address string.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	if len(s) != 17 {
		return a, fmt.Errorf("ether: bad address length %q", s)
	}
	for i := 0; i < AddrLen; i++ {
		hi, ok1 := hexVal(s[i*3])
		lo, ok2 := hexVal(s[i*3+1])
		if !ok1 || !ok2 {
			return a, fmt.Errorf("ether: bad hex digit in %q", s)
		}
		if i < AddrLen-1 && s[i*3+2] != ':' {
			return a, fmt.Errorf("ether: missing separator in %q", s)
		}
		a[i] = hi<<4 | lo
	}
	return a, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Type is an EtherType.
type Type uint16

// EtherTypes used by the fabric. LDP and the multicast-control type use
// values from the experimental/local range.
const (
	TypeIPv4 Type = 0x0800
	TypeARP  Type = 0x0806
	// TypeLDP carries PortLand Location Discovery Messages between
	// adjacent switches. Hosts never send or accept it.
	TypeLDP Type = 0x88b5
	// TypeGroupMgmt carries host join/leave requests for multicast
	// groups (the role IGMP plays in the paper's deployment).
	TypeGroupMgmt Type = 0x88b6
	// TypeProbe carries switch-to-switch data-plane liveness probes
	// (gray-failure detection). Probes are ordinary data frames on the
	// wire — unlike LDP they are subject to gray loss, which is the
	// point. Hosts never send or accept it.
	TypeProbe Type = 0x88b7
)

// String names well-known EtherTypes.
func (t Type) String() string {
	switch t {
	case TypeIPv4:
		return "IPv4"
	case TypeARP:
		return "ARP"
	case TypeLDP:
		return "LDP"
	case TypeGroupMgmt:
		return "GroupMgmt"
	case TypeProbe:
		return "Probe"
	default:
		return fmt.Sprintf("0x%04x", uint16(t))
	}
}

// Payload is the decoded body of a frame. Implementations append their
// exact wire layout with AppendTo and report its length with WireSize.
type Payload interface {
	// AppendTo appends the payload's wire bytes to b and returns the
	// extended slice.
	AppendTo(b []byte) []byte
	// WireSize returns the number of bytes AppendTo will append.
	WireSize() int
}

// Raw is an opaque payload of raw bytes.
type Raw []byte

// AppendTo implements Payload.
func (r Raw) AppendTo(b []byte) []byte { return append(b, r...) }

// WireSize implements Payload.
func (r Raw) WireSize() int { return len(r) }

// zeros is a payload of that many zero bytes, handed out by address
// from zeroLens (zeroLens[n] == n): a pointer fits an interface word,
// so such a payload costs neither its bytes nor a box. The two tables
// are 4.5 KB of static data, none of it heap.
type zeros uint16

// maxZeros is the largest payload an Ethernet MTU carries.
const maxZeros = 1500

var (
	zeroLens = func() (t [maxZeros + 1]zeros) {
		for n := range t {
			t[n] = zeros(n)
		}
		return t
	}()
	zeroBytes [maxZeros]byte // every zeros payload encodes a prefix of it
)

// Zeros returns a payload of n zero bytes — the body of every probe
// datagram and bulk-TCP segment the traffic sources send. Its wire
// bytes equal Raw(make([]byte, n))'s, but up to an MTU it allocates
// nothing; like every payload it is immutable and shared.
func Zeros(n int) Payload {
	if n < 0 || n > maxZeros {
		return Raw(make([]byte, n))
	}
	return &zeroLens[n]
}

// AppendTo implements Payload.
func (z *zeros) AppendTo(b []byte) []byte { return append(b, zeroBytes[:*z]...) }

// WireSize implements Payload.
func (z *zeros) WireSize() int { return int(*z) }

// Frame is an Ethernet II frame.
type Frame struct {
	Dst, Src Addr
	Type     Type
	Payload  Payload

	// pstate tracks FramePool ownership (see pool.go). The zero value
	// marks an ordinary heap frame that is never recycled.
	pstate uint8
	// queued marks a frame sitting in a FrameQueue, and next links it
	// to the frame behind it there (see queue.go).
	queued bool
	// gen increments each time a pool recycles this struct for a new
	// frame, so (pointer, Generation) identifies one frame's lifetime
	// even though pointers are reused (see Generation).
	gen  uint32
	next *Frame
}

// WireSize returns the frame's size on the wire including FCS and
// minimum-size padding; this is what link serialization delay uses.
func (f *Frame) WireSize() int {
	n := HeaderLen + FCSLen
	if f.Payload != nil {
		n += f.Payload.WireSize()
	}
	if n < MinFrameLen {
		n = MinFrameLen
	}
	return n
}

// AppendTo appends the frame header and payload wire bytes (without
// FCS or pad) to b and returns the extended slice. Callers on hot
// paths reuse one buffer across frames instead of paying Marshal's
// per-frame allocation.
func (f *Frame) AppendTo(b []byte) []byte {
	b = append(b, f.Dst[:]...)
	b = append(b, f.Src[:]...)
	b = append(b, byte(f.Type>>8), byte(f.Type))
	if f.Payload != nil {
		b = f.Payload.AppendTo(b)
	}
	return b
}

// Marshal renders the frame header and payload (without FCS or pad) to
// a fresh byte slice.
func (f *Frame) Marshal() []byte {
	n := HeaderLen
	if f.Payload != nil {
		n += f.Payload.WireSize()
	}
	return f.AppendTo(make([]byte, 0, n))
}

// ErrTruncated reports a buffer too short to contain the structure
// being decoded.
var ErrTruncated = errors.New("ether: truncated")

// Decode parses an Ethernet header from b. The payload is returned as
// Raw; protocol packages (arppkt, ippkt, ...) parse it further.
func Decode(b []byte) (*Frame, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("decoding frame of %d bytes: %w", len(b), ErrTruncated)
	}
	f := &Frame{Type: Type(uint16(b[12])<<8 | uint16(b[13]))}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	payload := make(Raw, len(b)-HeaderLen)
	copy(payload, b[HeaderLen:])
	f.Payload = payload
	return f, nil
}

// String summarizes the frame for traces.
func (f *Frame) String() string {
	return fmt.Sprintf("%s->%s %s (%dB)", f.Src, f.Dst, f.Type, f.WireSize())
}

// GroupAddr maps a 32-bit multicast group ID to a multicast MAC
// address in the IPv4-multicast OUI style (01:00:5e + 24 bits; the
// top byte of the group folds into the low bit pattern like IP
// multicast's 23-bit mapping, so distinct groups should keep their
// top 9 bits zero to avoid aliasing).
func GroupAddr(group uint32) Addr {
	return Addr{0x01, 0x00, 0x5e, byte(group>>16) & 0x7f, byte(group >> 8), byte(group)}
}

// GroupFromAddr recovers the group ID encoded by GroupAddr.
func GroupFromAddr(a Addr) (uint32, bool) {
	if a[0] != 0x01 || a[1] != 0x00 || a[2] != 0x5e {
		return 0, false
	}
	return uint32(a[3]&0x7f)<<16 | uint32(a[4])<<8 | uint32(a[5]), true
}
