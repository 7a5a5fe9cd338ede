// Package codec ties the per-protocol wire formats together: it can
// decode any payload the fabric carries from raw bytes by EtherType,
// and — the honesty check the simulator's typed fast path needs —
// verify that a typed frame survives a marshal/decode round trip
// byte-for-byte. A link Tap that runs VerifyFrame on every delivered
// frame (core's TestWireCheckAllTraffic installs one on each link)
// turns a whole run into a codec fuzzer with real traffic.
package codec

import (
	"bytes"
	"fmt"
	"sync"

	"portland/internal/arppkt"
	"portland/internal/baseline"
	"portland/internal/ether"
	"portland/internal/grouppkt"
	"portland/internal/ippkt"
	"portland/internal/ldp"
)

// DecodePayload parses raw payload bytes according to the EtherType.
// IPv4 payloads are recursively parsed into UDP/TCP when the protocol
// number is known; unknown EtherTypes return ether.Raw.
func DecodePayload(t ether.Type, b []byte) (ether.Payload, error) {
	switch t {
	case ether.TypeARP:
		return arppkt.Parse(b)
	case ether.TypeLDP:
		return ldp.Parse(b)
	case ether.TypeGroupMgmt:
		return grouppkt.Parse(b)
	case baseline.TypeSTP:
		return baseline.ParseBPDU(b)
	case ether.TypeIPv4:
		ip, err := ippkt.ParseIPv4(b)
		if err != nil {
			return nil, err
		}
		raw, ok := ip.Payload.(ether.Raw)
		if !ok {
			return ip, nil
		}
		switch ip.Protocol {
		case ippkt.ProtoUDP:
			udp, err := ippkt.ParseUDP(raw)
			if err != nil {
				return nil, fmt.Errorf("udp inside ipv4: %w", err)
			}
			ip.Payload = udp
		case ippkt.ProtoTCP:
			tcp, err := ippkt.ParseTCP(raw)
			if err != nil {
				return nil, fmt.Errorf("tcp inside ipv4: %w", err)
			}
			ip.Payload = tcp
		}
		return ip, nil
	default:
		return ether.Raw(append([]byte(nil), b...)), nil
	}
}

// DecodeFrame parses a full wire frame including its payload.
func DecodeFrame(b []byte) (*ether.Frame, error) {
	f, err := ether.Decode(b)
	if err != nil {
		return nil, err
	}
	raw, ok := f.Payload.(ether.Raw)
	if !ok {
		return f, nil
	}
	p, err := DecodePayload(f.Type, raw)
	if err != nil {
		return nil, fmt.Errorf("frame %s->%s type %s: %w", f.Src, f.Dst, f.Type, err)
	}
	f.Payload = p
	return f, nil
}

// verifyBufs is the pair of scratch wire buffers one VerifyFrame call
// needs. They are pooled — a wire-check tap runs it on every delivered
// frame, and with the parallel experiment runner on many engines at once —
// so the marshal side of the check is allocation-free at steady state.
type verifyBufs struct{ a, b []byte }

var verifyPool = sync.Pool{New: func() any { return new(verifyBufs) }}

// VerifyFrame asserts that the typed frame marshals, re-decodes, and
// re-marshals to identical bytes — the invariant that makes the
// simulator's typed fast path equivalent to a byte-level network.
func VerifyFrame(f *ether.Frame) error {
	bufs := verifyPool.Get().(*verifyBufs)
	defer verifyPool.Put(bufs)
	wire := f.AppendTo(bufs.a[:0])
	bufs.a = wire[:0] // keep the grown capacity for the next frame
	back, err := DecodeFrame(wire)
	if err != nil {
		return fmt.Errorf("wire check: decode failed: %w", err)
	}
	wire2 := back.AppendTo(bufs.b[:0])
	bufs.b = wire2[:0]
	if !bytes.Equal(wire, wire2) {
		return fmt.Errorf("wire check: re-marshal differs for %v (%d vs %d bytes)", f, len(wire), len(wire2))
	}
	if back.Dst != f.Dst || back.Src != f.Src || back.Type != f.Type {
		return fmt.Errorf("wire check: header mutated for %v", f)
	}
	return nil
}
