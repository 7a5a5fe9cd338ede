package topo

import (
	"fmt"
	"reflect"
	"testing"
)

// refFatTree wires the k-ary fat tree with a loop nest of its own,
// independent of MultiRootTree: the reference FatTree must equal.
func refFatTree(k int) *Spec {
	half := k / 2
	s := &Spec{K: k}

	edge := make([][]NodeID, k) // [pod][pos]
	agg := make([][]NodeID, k)  // [pod][pos]
	core := make([]NodeID, half*half)
	add := func(n NodeSpec) NodeID {
		n.ID = NodeID(len(s.Nodes))
		s.Nodes = append(s.Nodes, n)
		return n.ID
	}
	for p := 0; p < k; p++ {
		edge[p] = make([]NodeID, half)
		agg[p] = make([]NodeID, half)
		for j := 0; j < half; j++ {
			edge[p][j] = add(NodeSpec{
				Level: Edge, Pod: p, Position: j, Ports: k,
				Name: fmt.Sprintf("edge-p%d-s%d", p, j),
			})
		}
		for j := 0; j < half; j++ {
			agg[p][j] = add(NodeSpec{
				Level: Aggregation, Pod: p, Position: j, Ports: k,
				Name: fmt.Sprintf("agg-p%d-s%d", p, j),
			})
		}
	}
	for c := 0; c < half*half; c++ {
		core[c] = add(NodeSpec{
			Level: Core, Pod: -1, Position: c, Ports: k,
			Name: fmt.Sprintf("core-%d", c),
		})
	}
	// Hosts: k/2 per edge switch.
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for h := 0; h < half; h++ {
				id := add(NodeSpec{
					Level: Host, Pod: p, Position: h, Ports: 1,
					Name: fmt.Sprintf("host-p%d-e%d-h%d", p, j, h),
				})
				s.Links = append(s.Links, LinkSpec{
					A: PortRef{id, 0},
					B: PortRef{edge[p][j], h},
				})
			}
		}
	}
	// Edge <-> aggregation (full bipartite within the pod).
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				s.Links = append(s.Links, LinkSpec{
					A: PortRef{edge[p][e], half + a},
					B: PortRef{agg[p][a], e},
				})
			}
		}
	}
	// Aggregation <-> core.
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for i := 0; i < half; i++ {
				c := j*half + i
				s.Links = append(s.Links, LinkSpec{
					A: PortRef{agg[p][j], half + i},
					B: PortRef{core[c], p},
				})
			}
		}
	}
	return s
}

// FatTree is MultiRootTree's k-ary case: node for node and link for
// link, in the same order, it is the reference's spec.
func TestFatTreeMatchesReference(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8, 16, 32, 48} {
		got, err := FatTree(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if want := refFatTree(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: FatTree differs from refFatTree", k)
		}
	}
}

func TestFatTreeCountsMatchClosedForm(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8, 16, 48} {
		spec, err := FatTree(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got, want := spec.Count(), FatTreeCounts(k); got != want {
			t.Fatalf("k=%d: counts %+v, want %+v", k, got, want)
		}
	}
}

func TestFatTreeRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5, -4} {
		if _, err := FatTree(k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestFatTreeWiringValid(t *testing.T) {
	spec, err := FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[PortRef]bool)
	for _, l := range spec.Links {
		for _, ref := range []PortRef{l.A, l.B} {
			if ref.Node < 0 || int(ref.Node) >= len(spec.Nodes) {
				t.Fatalf("link references node %d out of range", ref.Node)
			}
			n := spec.Nodes[ref.Node]
			if ref.Port < 0 || ref.Port >= n.Ports {
				t.Fatalf("%s: port %d out of range (%d ports)", n.Name, ref.Port, n.Ports)
			}
			if used[ref] {
				t.Fatalf("%s port %d wired twice", n.Name, ref.Port)
			}
			used[ref] = true
		}
		if l.A.Node == l.B.Node {
			t.Fatal("self link")
		}
	}
	// Every switch port must be wired; every host has one port.
	for _, n := range spec.Nodes {
		for p := 0; p < n.Ports; p++ {
			if !used[PortRef{n.ID, p}] {
				t.Fatalf("%s port %d unwired", n.Name, p)
			}
		}
	}
}

func TestFatTreePortConventions(t *testing.T) {
	spec, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	half := 2
	level := func(id NodeID) Level { return spec.Nodes[id].Level }
	for _, l := range spec.Links {
		a, b := spec.Nodes[l.A.Node], spec.Nodes[l.B.Node]
		switch {
		case a.Level == Host:
			if b.Level != Edge || l.B.Port >= half {
				t.Fatalf("host %s wired to %s port %d", a.Name, b.Name, l.B.Port)
			}
		case a.Level == Edge && b.Level == Aggregation:
			if l.A.Port < half || l.B.Port >= half {
				t.Fatalf("edge-agg ports %d,%d violate convention", l.A.Port, l.B.Port)
			}
			if a.Pod != b.Pod {
				t.Fatal("edge and aggregation in different pods wired")
			}
		case a.Level == Aggregation && b.Level == Core:
			if l.A.Port < half {
				t.Fatalf("agg up-port %d below half", l.A.Port)
			}
			if l.B.Port != a.Pod {
				t.Fatalf("core port %d must equal pod %d", l.B.Port, a.Pod)
			}
		}
	}
	_ = level
}

func TestFatTreeCoreGrouping(t *testing.T) {
	// Core c = j*(k/2)+i must connect to aggregation position j in
	// every pod — the structural property PortLand's fault handling
	// leans on.
	spec, err := FatTree(6)
	if err != nil {
		t.Fatal(err)
	}
	half := 3
	for _, l := range spec.Links {
		a, b := spec.Nodes[l.A.Node], spec.Nodes[l.B.Node]
		if a.Level != Aggregation || b.Level != Core {
			continue
		}
		j := b.Position / half
		if a.Position != j {
			t.Fatalf("core %s (group %d) wired to agg position %d", b.Name, j, a.Position)
		}
	}
}

func TestSwitchAndHostLists(t *testing.T) {
	spec, _ := FatTree(4)
	if len(spec.Switches()) != 20 || len(spec.Hosts()) != 16 {
		t.Fatalf("switches=%d hosts=%d", len(spec.Switches()), len(spec.Hosts()))
	}
	for _, id := range spec.Hosts() {
		if spec.Nodes[id].Level != Host {
			t.Fatal("Hosts() returned a switch")
		}
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{Host: "host", Edge: "edge", Aggregation: "agg", Core: "core", Level(9): "level9"} {
		if l.String() != want {
			t.Errorf("%d.String() = %q", int(l), l.String())
		}
	}
}
