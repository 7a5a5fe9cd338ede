package ctrlmsg

import (
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"portland/internal/ether"
)

func ip(b [4]byte) netip.Addr { return netip.AddrFrom4(b) }

func TestAllKindsRoundTrip(t *testing.T) {
	msgs := []Msg{
		Hello{Switch: 12},
		LocationReport{Switch: 3, Loc: Loc{Level: LevelEdge, Pod: 7, Pos: 1}},
		PodRequest{Switch: 9},
		PodAssign{Pod: 42},
		PMACRegister{Switch: 2, IP: ip([4]byte{10, 0, 0, 1}), AMAC: ether.Addr{2, 0, 0, 0, 0, 1}, PMAC: ether.Addr{0, 1, 0, 0, 0, 1}},
		ARPQuery{Switch: 5, QueryID: 99, SenderPMAC: ether.Addr{0, 1, 0, 0, 0, 2}, SenderIP: ip([4]byte{10, 0, 0, 2}), TargetIP: ip([4]byte{10, 0, 0, 3})},
		ARPAnswer{QueryID: 99, Found: true, TargetIP: ip([4]byte{10, 0, 0, 3}), PMAC: ether.Addr{0, 2, 0, 0, 0, 1}},
		ARPAnswer{QueryID: 100, Found: false, TargetIP: ip([4]byte{10, 0, 0, 4})},
		ARPFlood{QueryID: 100, SenderPMAC: ether.Addr{0, 1, 0, 1, 0, 1}, SenderIP: ip([4]byte{10, 0, 0, 2}), TargetIP: ip([4]byte{10, 0, 0, 4})},
		FaultNotify{Switch: 4, Port: 3, Down: true, PeerID: 17, PeerLoc: Loc{Level: LevelCore, Pod: 0xffff, Pos: 0xff}, LocalLoc: Loc{Level: LevelAggregation, Pod: 2, Pos: 0xff}},
		RouteExclude{Add: true, Via: 17, DstPod: 2, DstPos: AnyPos},
		RouteExclude{Add: false, Via: 18, DstPod: 3, DstPos: 1},
		McastJoin{Switch: 6, Group: 0xbeef, HostPMAC: ether.Addr{0, 1, 1, 0, 0, 1}, Join: true, Source: true},
		McastInstall{Group: 0xbeef, OutPorts: []uint8{0, 2, 3}},
		McastInstall{Group: 0xbeef}, // removal (empty ports)
		MigrationUpdate{IP: ip([4]byte{10, 99, 0, 1}), OldPMAC: ether.Addr{0, 1, 0, 0, 0, 1}},
		DHCPQuery{Switch: 4, QueryID: 11, XID: 0xdeadbeef, ClientMAC: ether.Addr{2, 0, 0, 0, 0, 9}},
		DHCPAnswer{QueryID: 11, XID: 0xdeadbeef, IP: ip([4]byte{10, 200, 0, 1})},
		StateSyncRequest{Epoch: 3},
		LeaseReport{Switch: 5, MAC: ether.Addr{2, 0, 0, 0, 0, 7}, IP: ip([4]byte{10, 200, 0, 2})},
		SyncDone{Switch: 5, Epoch: 3},
		Heartbeat{Epoch: 2},
		SeqData{Seq: 77, Payload: ARPAnswer{QueryID: 99, Found: true, TargetIP: ip([4]byte{10, 0, 0, 3}), PMAC: ether.Addr{0, 2, 0, 0, 0, 1}}},
		SeqData{Seq: 0, Payload: Hello{Switch: 1}},
		SeqAck{NextSeq: 78},
		GrayReport{Switch: 7, Port: 2, PeerID: 9, WireErrs: 11, ProbesLost: 3, Quarantined: true},
		HostInstall{IP: ip([4]byte{10, 0, 1, 2}), AMAC: ether.Addr{2, 0, 0, 0, 1, 2}, PMAC: ether.Addr{0, 0, 1, 0, 0, 2}},
		ARPQueryBatch{Switch: 5, Queries: []ARPQuery{
			{Switch: 5, QueryID: 1, SenderPMAC: ether.Addr{0, 1, 0, 0, 0, 2}, SenderIP: ip([4]byte{10, 0, 0, 2}), TargetIP: ip([4]byte{10, 0, 0, 3})},
			{Switch: 5, QueryID: 2, SenderPMAC: ether.Addr{0, 1, 0, 0, 0, 2}, SenderIP: ip([4]byte{10, 0, 0, 2}), TargetIP: ip([4]byte{10, 0, 0, 7})},
		}},
		ARPAnswerBatch{Answers: []ARPAnswer{
			{QueryID: 1, Found: true, TargetIP: ip([4]byte{10, 0, 0, 3}), PMAC: ether.Addr{0, 2, 0, 0, 0, 1}},
			{QueryID: 2, Found: false, TargetIP: ip([4]byte{10, 0, 0, 7})},
		}},
	}
	for _, in := range msgs {
		b := Encode(in)
		out, err := Decode(b)
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%T round trip: %+v != %+v", in, in, out)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer must fail")
	}
	if _, err := Decode([]byte{0xee}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	// Truncated body.
	b := Encode(ARPQuery{Switch: 1, QueryID: 2})
	if _, err := Decode(b[:len(b)-1]); err == nil {
		t.Fatal("truncated body must fail")
	}
	// Trailing bytes.
	if _, err := Decode(append(Encode(Hello{Switch: 1}), 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	// Nested envelopes are rejected (bounds decoder recursion).
	nested := Encode(SeqData{Seq: 1, Payload: Hello{Switch: 1}})
	outer := append([]byte{byte(KindSeqData), 0, 0, 0, 0, 0, 0, 0, 2}, nested...)
	if _, err := Decode(outer); err == nil {
		t.Fatal("nested seq-data must fail")
	}
	// An envelope whose payload is corrupt must fail, not panic.
	bad := Encode(SeqData{Seq: 9, Payload: PodAssign{Pod: 1}})
	if _, err := Decode(bad[:len(bad)-1]); err == nil {
		t.Fatal("truncated seq-data payload must fail")
	}
}

func TestQuickRoundTrips(t *testing.T) {
	check := func(name string, f any) {
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("FaultNotify", func(sw uint32, port uint8, down bool, peer uint32, pl, ll Loc) bool {
		in := FaultNotify{Switch: SwitchID(sw), Port: port, Down: down, PeerID: SwitchID(peer), PeerLoc: pl, LocalLoc: ll}
		out, err := Decode(Encode(in))
		return err == nil && out == in
	})
	check("ARPQuery", func(sw uint32, qid uint64, pm ether.Addr, s4, t4 [4]byte) bool {
		in := ARPQuery{Switch: SwitchID(sw), QueryID: qid, SenderPMAC: pm, SenderIP: ip(s4), TargetIP: ip(t4)}
		out, err := Decode(Encode(in))
		return err == nil && out == in
	})
	check("RouteExclude", func(add bool, via uint32, pod uint16, pos uint8) bool {
		in := RouteExclude{Add: add, Via: SwitchID(via), DstPod: pod, DstPos: pos}
		out, err := Decode(Encode(in))
		return err == nil && out == in
	})
	check("ARPQueryBatch", func(sw uint32, ids []uint64, t4 [4]byte) bool {
		if len(ids) > 64 {
			ids = ids[:64]
		}
		in := ARPQueryBatch{Switch: SwitchID(sw)}
		for _, id := range ids {
			in.Queries = append(in.Queries, ARPQuery{
				Switch: in.Switch, QueryID: id, SenderIP: ip([4]byte{10, 0, 0, 1}), TargetIP: ip(t4),
			})
		}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		got := out.(ARPQueryBatch)
		if got.Switch != in.Switch || len(got.Queries) != len(in.Queries) {
			return false
		}
		for i := range in.Queries {
			if got.Queries[i] != in.Queries[i] {
				return false
			}
		}
		return true
	})
	check("ARPAnswerBatch", func(ids []uint64, found bool, pm ether.Addr) bool {
		if len(ids) > 64 {
			ids = ids[:64]
		}
		in := ARPAnswerBatch{}
		for _, id := range ids {
			in.Answers = append(in.Answers, ARPAnswer{
				QueryID: id, Found: found, TargetIP: ip([4]byte{10, 0, 0, 2}), PMAC: pm,
			})
		}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		got := out.(ARPAnswerBatch)
		if len(got.Answers) != len(in.Answers) {
			return false
		}
		for i := range in.Answers {
			if got.Answers[i] != in.Answers[i] {
				return false
			}
		}
		return true
	})
	check("McastInstall", func(group uint32, ports []uint8) bool {
		if len(ports) > 255 {
			ports = ports[:255]
		}
		in := McastInstall{Group: group, OutPorts: ports}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		got := out.(McastInstall)
		if got.Group != group || len(got.OutPorts) != len(ports) {
			return false
		}
		for i := range ports {
			if got.OutPorts[i] != ports[i] {
				return false
			}
		}
		return true
	})
}

func TestKindStrings(t *testing.T) {
	if int(kindMax) != len(kindNames) {
		t.Fatalf("kindNames has %d entries, want %d", len(kindNames), kindMax)
	}
	if KindARPQuery.String() != "arp-query" || Kind(200).String() != "kind200" {
		t.Fatal("kind names")
	}
}

func TestShardOfIP(t *testing.T) {
	// n<=1 and non-v4 collapse to shard 0.
	if ShardOfIP(ip([4]byte{10, 0, 0, 1}), 1) != 0 || ShardOfIP(netip.Addr{}, 4) != 0 {
		t.Fatal("degenerate cases must map to shard 0")
	}
	// /30 blocks are atomic: the four addresses of a block share a shard.
	for _, n := range []int{2, 3, 4, 8} {
		base := ShardOfIP(ip([4]byte{10, 0, 0, 4}), n)
		for last := byte(4); last < 8; last++ {
			if got := ShardOfIP(ip([4]byte{10, 0, 0, last}), n); got != base {
				t.Fatalf("n=%d: 10.0.0.%d on shard %d, block base on %d", n, last, got, base)
			}
		}
	}
	// Consecutive blocks stripe: a contiguous host range spreads
	// within one block-count of perfectly even.
	for _, n := range []int{2, 4, 8} {
		counts := make([]int, n)
		for i := 0; i < 1024; i++ {
			a := ip([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
			counts[ShardOfIP(a, n)]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 4 {
			t.Fatalf("n=%d: shard counts %v too skewed", n, counts)
		}
	}
}

func TestLocString(t *testing.T) {
	l := Loc{Level: LevelEdge, Pod: 3, Pos: 1}
	if got := l.String(); got != "{lvl=1 pod=3 pos=1}" {
		t.Fatalf("Loc.String() = %q", got)
	}
}
