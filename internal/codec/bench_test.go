package codec

import (
	"testing"

	"portland/internal/ether"
)

// BenchmarkCodecVerifyFrame is the wire-check hot path: every delivered
// frame pays one of these under a verifying link Tap. The
// marshal halves ride pooled buffers; remaining allocs/op come from
// the decode side's typed payload structs.
func BenchmarkCodecVerifyFrame(b *testing.B) {
	fs := frames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyFrame(fs[i%len(fs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecMarshal allocates a fresh slice per frame — the
// baseline AppendTo exists to beat.
func BenchmarkCodecMarshal(b *testing.B) {
	fs := frames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fs[i%len(fs)].Marshal()
	}
}

// BenchmarkCodecAppendTo reuses one buffer across frames; allocs/op
// must be zero once the buffer has grown to the largest frame.
func BenchmarkCodecAppendTo(b *testing.B) {
	fs := frames()
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = fs[i%len(fs)].AppendTo(buf[:0])
	}
	if len(buf) < ether.HeaderLen {
		b.Fatal("no bytes appended")
	}
}

// BenchmarkCodecDecodeFrame isolates the parse side of the wire check.
func BenchmarkCodecDecodeFrame(b *testing.B) {
	fs := frames()
	wires := make([][]byte, len(fs))
	for i, f := range fs {
		wires[i] = f.Marshal()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(wires[i%len(wires)]); err != nil {
			b.Fatal(err)
		}
	}
}
