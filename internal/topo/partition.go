package topo

import "sort"

// Partition assigns every node of the blueprint to an engine shard for
// sharded simulation. The cut follows the fat tree's structure: shard
// 0 holds the core bank (plus the control plane, which the fabric
// wires there), and each pod — its aggregation and edge switches and
// their hosts — lands whole on one of the remaining shards. A pod is
// the natural unit because every pod-to-pod path crosses an
// aggregation↔core link, so the only cross-shard traffic is exactly
// the traffic with a full link delay of lookahead.
//
// Pods are packed by per-pod node count, heaviest first onto the
// currently lightest shard (ties broken by lower pod number and lower
// shard index), so blueprints with uneven pods still come out
// balanced. For a regular fat tree — every pod the same size — this
// degenerates to the same round-robin layout as before: pod p lands on
// shard 1 + p%podShards.
//
// It returns the per-node shard assignment (indexed by NodeID) and
// the effective shard count, which may be lower than requested:
// shards <= 1, or a blueprint without pod structure, collapses to one
// shard; more pod shards than pods collapses to one shard per pod.
func Partition(s *Spec, shards int) (assign []int, n int) {
	assign = make([]int, len(s.Nodes))
	if shards <= 1 {
		return assign, 1
	}
	pods := 0
	for _, node := range s.Nodes {
		if node.Pod >= pods {
			pods = node.Pod + 1
		}
	}
	if pods == 0 {
		return assign, 1
	}
	podShards := shards - 1
	if podShards > pods {
		podShards = pods
	}

	// Weigh each pod by its node count, then greedily pack
	// heaviest-first onto the lightest shard (longest-processing-time
	// rule). Stable order keeps equal-weight pods in pod-number order.
	weight := make([]int, pods)
	for _, node := range s.Nodes {
		if node.Pod >= 0 {
			weight[node.Pod]++
		}
	}
	order := make([]int, pods)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight[order[a]] > weight[order[b]]
	})
	load := make([]int, podShards)
	podShard := make([]int, pods)
	for _, p := range order {
		best := 0
		for sh := 1; sh < podShards; sh++ {
			if load[sh] < load[best] {
				best = sh
			}
		}
		load[best] += weight[p]
		podShard[p] = 1 + best
	}

	n = 1
	for _, node := range s.Nodes {
		if node.Pod < 0 {
			continue // core bank stays on shard 0
		}
		sh := podShard[node.Pod]
		assign[node.ID] = sh
		if sh >= n {
			n = sh + 1
		}
	}
	return assign, n
}
