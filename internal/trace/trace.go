// Package trace captures simulated traffic for offline analysis: a
// pcap writer emitting standard libpcap files. Every frame is
// serialized through the real wire codecs, so captures open in
// Wireshark/tcpdump with ARP, IPv4, UDP and TCP fully dissected.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"portland/internal/ether"
)

// pcap constants: classic libpcap format, LINKTYPE_ETHERNET.
const (
	pcapMagic    = 0xa1b2c3d4
	pcapVersionM = 2
	pcapVersionN = 4
	pcapSnapLen  = 65535
	pcapEthernet = 1
)

// PcapWriter emits a standard pcap capture. Not safe for concurrent
// use (the simulator is single-threaded).
type PcapWriter struct {
	w      io.Writer
	frames int
	err    error
}

// NewPcapWriter writes the file header and returns the writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], pcapMagic)
	le.PutUint16(hdr[4:], pcapVersionM)
	le.PutUint16(hdr[6:], pcapVersionN)
	// thiszone, sigfigs = 0
	le.PutUint32(hdr[16:], pcapSnapLen)
	le.PutUint32(hdr[20:], pcapEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("writing pcap header: %w", err)
	}
	return &PcapWriter{w: w}, nil
}

// WriteFrame appends one frame stamped with the virtual time.
func (p *PcapWriter) WriteFrame(at time.Duration, f *ether.Frame) error {
	if p.err != nil {
		return p.err
	}
	body := f.Marshal()
	if len(body) > pcapSnapLen {
		body = body[:pcapSnapLen]
	}
	var rec [16]byte
	le := binary.LittleEndian
	le.PutUint32(rec[0:], uint32(at/time.Second))
	le.PutUint32(rec[4:], uint32((at%time.Second)/time.Microsecond))
	le.PutUint32(rec[8:], uint32(len(body)))
	le.PutUint32(rec[12:], uint32(len(body)))
	if _, err := p.w.Write(rec[:]); err != nil {
		p.err = fmt.Errorf("writing pcap record header: %w", err)
		return p.err
	}
	if _, err := p.w.Write(body); err != nil {
		p.err = fmt.Errorf("writing pcap record body: %w", err)
		return p.err
	}
	p.frames++
	return nil
}

// Frames returns how many frames have been written.
func (p *PcapWriter) Frames() int { return p.frames }
