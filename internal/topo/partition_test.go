package topo

import "testing"

// Shard balance: for regular fat trees every pod weighs the same, so
// the greedy packer must spread pods across shards with a max/min skew
// of at most one pod, for every shard count we actually run.
func TestPartitionPodSkew(t *testing.T) {
	for _, k := range []int{4, 16, 48, 64} {
		spec, err := FatTree(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, shards := range []int{2, 3, 4, 5, 8, 9, 16, 17} {
			assign, n := Partition(spec, shards)
			if n <= 1 {
				t.Fatalf("k=%d shards=%d: collapsed to %d", k, shards, n)
			}
			// Count pods per pod shard (shard 0 is the core bank).
			podOf := make(map[int]int) // pod -> shard
			for _, node := range spec.Nodes {
				if node.Pod >= 0 {
					podOf[node.Pod] = assign[node.ID]
				}
			}
			perShard := make([]int, n)
			for _, sh := range podOf {
				if sh == 0 {
					t.Fatalf("k=%d shards=%d: pod node on core shard", k, shards)
				}
				perShard[sh]++
			}
			min, max := perShard[1], perShard[1]
			for _, c := range perShard[1:] {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if max-min > 1 {
				t.Errorf("k=%d shards=%d: pods per shard skew %d (min %d max %d)",
					k, shards, max-min, min, max)
			}
		}
	}
}

// Regular fat trees must keep the historical round-robin layout: pod p
// on shard 1 + p%podShards. Sharded-run layouts are not supposed to
// drift when the packer changes for uneven blueprints.
func TestPartitionRegularIsRoundRobin(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		spec, err := FatTree(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, shards := range []int{2, 3, 5, 9} {
			assign, n := Partition(spec, shards)
			podShards := n - 1
			for _, node := range spec.Nodes {
				want := 0
				if node.Pod >= 0 {
					want = 1 + node.Pod%podShards
				}
				if assign[node.ID] != want {
					t.Fatalf("k=%d shards=%d: node %s on shard %d, want %d",
						k, shards, node.Name, assign[node.ID], want)
				}
			}
		}
	}
}

// Uneven pods: the packer must weigh pods by node count, not count of
// pods. Two heavy pods and two light ones across two pod shards must
// come out one-heavy-one-light each, not heavy+heavy vs light+light.
func TestPartitionWeighsUnevenPods(t *testing.T) {
	spec := &Spec{}
	addNode := func(pod int) {
		spec.Nodes = append(spec.Nodes, NodeSpec{ID: NodeID(len(spec.Nodes)), Pod: pod, Level: Edge})
	}
	// pod 0: 10 nodes, pod 1: 10, pod 2: 2, pod 3: 2.
	for i := 0; i < 10; i++ {
		addNode(0)
	}
	for i := 0; i < 10; i++ {
		addNode(1)
	}
	addNode(2)
	addNode(2)
	addNode(3)
	addNode(3)
	assign, n := Partition(spec, 3) // core shard + 2 pod shards
	if n != 3 {
		t.Fatalf("n=%d, want 3", n)
	}
	load := make(map[int]int)
	for _, node := range spec.Nodes {
		load[assign[node.ID]] += 1
	}
	if load[1] != 12 || load[2] != 12 {
		t.Fatalf("shard loads %v, want 12/12", load)
	}
}
