package ether

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAddrStringParseRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		got, err := ParseAddr(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{
		"", "00:11:22:33:44", "00:11:22:33:44:5", "00:11:22:33:44:5g",
		"00-11-22-33-44-55", "00:11:22:33:44:55:66", "0g:11:22:33:44:55",
	} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
	a, err := ParseAddr("0A:1b:2C:3d:4E:5f")
	if err != nil {
		t.Fatal(err)
	}
	if a != (Addr{0x0a, 0x1b, 0x2c, 0x3d, 0x4e, 0x5f}) {
		t.Fatalf("mixed-case parse: %v", a)
	}
}

func TestAddrPredicates(t *testing.T) {
	if !Broadcast.IsBroadcast() || Broadcast.IsMulticast() {
		t.Error("broadcast predicates")
	}
	if !Zero.IsZero() || Zero.IsMulticast() {
		t.Error("zero predicates")
	}
	mc := Addr{0x01, 0x00, 0x5e, 1, 2, 3}
	if !mc.IsMulticast() || mc.IsBroadcast() {
		t.Error("multicast predicates")
	}
	uni := Addr{0x02, 0, 0, 0, 0, 1}
	if uni.IsMulticast() || uni.IsBroadcast() || uni.IsZero() {
		t.Error("unicast predicates")
	}
}

func TestFrameWireSizePadding(t *testing.T) {
	f := &Frame{Type: TypeIPv4, Payload: Raw(make([]byte, 10))}
	if got := f.WireSize(); got != MinFrameLen {
		t.Fatalf("small frame WireSize=%d, want %d (min)", got, MinFrameLen)
	}
	f.Payload = Raw(make([]byte, 1500))
	if got := f.WireSize(); got != HeaderLen+1500+FCSLen {
		t.Fatalf("full frame WireSize=%d", got)
	}
	var empty Frame
	if empty.WireSize() != MinFrameLen {
		t.Fatal("nil-payload frame must still be min-sized")
	}
}

func TestFrameMarshalDecodeRoundTrip(t *testing.T) {
	f := func(dst, src Addr, typ uint16, payload []byte) bool {
		in := &Frame{Dst: dst, Src: src, Type: Type(typ), Payload: Raw(payload)}
		out, err := Decode(in.Marshal())
		if err != nil {
			return false
		}
		return out.Dst == dst && out.Src == src && out.Type == Type(typ) &&
			string(out.Payload.(Raw)) == string(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, err := Decode(make([]byte, HeaderLen-1)); err == nil {
		t.Fatal("short buffer must fail")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Zeros is Raw(make([]byte, n)) on the wire at every size — including
// past the table, where it falls back to exactly that — and free to
// build and to encode.
func TestZeros(t *testing.T) {
	for _, n := range []int{0, 1, 64, 1460, 1472, 1500, 1501, 9000} {
		z, want := Zeros(n), Raw(make([]byte, n))
		if z.WireSize() != n {
			t.Fatalf("Zeros(%d).WireSize() = %d", n, z.WireSize())
		}
		if got := z.AppendTo([]byte{0xaa}); !bytes.Equal(got, want.AppendTo([]byte{0xaa})) {
			t.Fatalf("Zeros(%d) appends %d bytes; want the prefix and %d zeros", n, len(got), n)
		}
	}
	buf := make([]byte, 0, 2048)
	var p Payload
	if avg := testing.AllocsPerRun(100, func() {
		p = Zeros(1472)
		buf = p.AppendTo(buf[:0])
	}); avg != 0 {
		t.Fatalf("building and encoding Zeros(1472) allocates %.1f objects; want 0", avg)
	}
}

func TestClone(t *testing.T) {
	f := &Frame{Dst: Broadcast, Type: TypeARP, Payload: Raw("x")}
	var p FramePool
	g := p.Clone(f)
	g.Dst = Zero
	if f.Dst != Broadcast {
		t.Fatal("clone aliases the original header")
	}
}

func TestGroupAddrRoundTrip(t *testing.T) {
	f := func(group uint32) bool {
		group &= 0x7fffff // 23 mappable bits, as documented
		a := GroupAddr(group)
		got, ok := GroupFromAddr(a)
		return ok && got == group && a.IsMulticast()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := GroupFromAddr(Addr{0x02, 0, 0, 1, 2, 3}); ok {
		t.Fatal("non-group address must not parse as a group")
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeIPv4: "IPv4", TypeARP: "ARP", TypeLDP: "LDP",
		TypeGroupMgmt: "GroupMgmt", Type(0x1234): "0x1234",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint16(typ), got, want)
		}
	}
}

// A frame stays in the 48-byte size class with its FrameQueue link.
func TestFrameSize(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size != 48 {
		t.Fatalf("ether.Frame is %d bytes; want 48", size)
	}
}

func TestFrameQueueFIFO(t *testing.T) {
	var q FrameQueue
	frames := make([]*Frame, 5)
	for i := range frames {
		frames[i] = &Frame{Payload: Raw{byte(i)}}
	}
	if q.Pop() != nil {
		t.Fatal("zero FrameQueue is not empty")
	}
	for round := 0; round < 2; round++ { // the second round re-queues popped frames
		for _, f := range frames {
			q.Push(f)
		}
		for i, want := range frames {
			f := q.Pop()
			if f != want {
				t.Fatalf("round %d: pop %d returned the wrong frame", round, i)
			}
			if f.next != nil || f.queued {
				t.Fatalf("round %d: popped frame %d still linked", round, i)
			}
		}
		if q.Pop() != nil {
			t.Fatalf("round %d: queue not empty after popping every frame", round)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			q.Push(f)
		}
		for range frames {
			q.Pop()
		}
	}); avg != 0 {
		t.Fatalf("FrameQueue push/pop allocates %.1f objects; want 0", avg)
	}
}

// A frame is in at most one queue, and a queued frame is not consumed:
// a second Push and a FramePool.Put both panic. Once popped, a pooled
// frame recycles clean.
func TestFrameQueueOwnership(t *testing.T) {
	var pool FramePool
	var q, other FrameQueue
	f := pool.Get()
	q.Push(f)
	mustPanic(t, "second Push of a queued frame", func() { other.Push(f) })
	mustPanic(t, "Put of a queued frame", func() { pool.Put(f) })
	if q.Pop() != f || other.Pop() != nil {
		t.Fatal("the failed Push disturbed a queue")
	}
	pool.Put(f)
	if g := pool.Get(); g != f || g.next != nil || g.queued {
		t.Fatal("recycled frame does not start unlinked")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
