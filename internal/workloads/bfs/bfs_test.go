package bfs

import (
	"testing"

	"repro/internal/machine"
)

func small(variant Variant) *BFS {
	return &BFS{NVerts: 1 << 10, AvgDeg: 8, Roots: 2, Variant: variant, seed: 0xb5f5}
}

// refBFS computes distances with a plain queue BFS on the CSR graph.
func refBFS(offsets, adj []int32, nv int, root int32) []int32 {
	dist := make([]int32, nv)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := []int32{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := offsets[u]; p < offsets[u+1]; p++ {
			v := adj[p]
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestParentsFormValidBFSTree(t *testing.T) {
	b := small(Baseline)
	m := machine.New(machine.Default())
	b.Run(m)
	nv := b.NVerts
	root := int32((int(uint64(0xb5f5)) + (b.Roots-1)*7919) % nv)
	dist := refBFS(b.offsets, b.adj, nv, root)

	// Same reachable set.
	for v := 0; v < nv; v++ {
		reached := b.Parents[v] >= 0
		refReached := dist[v] >= 0
		if reached != refReached {
			t.Fatalf("vertex %d reachability mismatch: parents=%v ref=%v",
				v, b.Parents[v], dist[v])
		}
	}
	// Parent edges exist and connect adjacent BFS levels.
	for v := 0; v < nv; v++ {
		p := b.Parents[v]
		if p < 0 || int32(v) == p {
			continue
		}
		if dist[v] != dist[p]+1 {
			t.Errorf("vertex %d at depth %d has parent %d at depth %d",
				v, dist[v], p, dist[p])
		}
		found := false
		for e := b.offsets[v]; e < b.offsets[v+1]; e++ {
			if b.adj[e] == p {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("parent %d of %d is not a neighbour", p, v)
		}
	}
	if b.Reached < nv/2 {
		t.Errorf("only %d/%d vertices reached; rMAT giant component expected", b.Reached, nv)
	}
}

func TestVariantsComputeSameTraversal(t *testing.T) {
	results := map[Variant]int{}
	for _, v := range []Variant{Baseline, ReorderOnly, Optimized} {
		b := small(v)
		m := machine.New(machine.Default())
		b.Run(m)
		results[v] = b.Reached
	}
	if results[Baseline] != results[Optimized] || results[Baseline] != results[ReorderOnly] {
		t.Errorf("variants disagree on reached count: %v", results)
	}
}

func TestOptimizedReducesRemoteAccess(t *testing.T) {
	// The §7.1 headline: at 75% pooling the baseline does nearly all its
	// traversal traffic remotely; the optimized variant cuts it sharply.
	remote := func(v Variant) float64 {
		// Measure peak footprint first (setup_waste protocol).
		probe := small(v)
		mp := machine.New(machine.Default())
		probe.Run(mp)
		local := mp.PeakFootprint() / 4 // 25% local, 75% pooled

		b := small(v)
		m := machine.New(machine.Default().WithLocalCapacity(local))
		b.Run(m)
		p2, ok := m.Phase("p2")
		if !ok {
			t.Fatal("missing p2")
		}
		return p2.RemoteAccessRatio
	}
	base := remote(Baseline)
	opt := remote(Optimized)
	if base < 0.8 {
		t.Errorf("baseline remote access ratio = %v, want >= 0.8 (paper: 99%%)", base)
	}
	if opt >= base-0.2 {
		t.Errorf("optimized remote ratio %v should be well below baseline %v", opt, base)
	}
}

func TestReorderPinsParentsLocally(t *testing.T) {
	b := small(ReorderOnly)
	probe := small(ReorderOnly)
	mp := machine.New(machine.Default())
	probe.Run(mp)
	local := mp.PeakFootprint() / 4
	m := machine.New(machine.Default().WithLocalCapacity(local))
	b.Run(m)
	_, regions := m.SplitAt(local)
	for _, rs := range regions {
		if rs.Region.Name == "Parents" && rs.RemotePages > 0 {
			t.Errorf("Parents has %d remote pages in reorder-only variant", rs.RemotePages)
		}
	}
}

func TestScratchFreedOnlyInOptimized(t *testing.T) {
	check := func(v Variant, wantLive bool) {
		b := small(v)
		m := machine.New(machine.Default())
		b.Run(m)
		live := false
		_, regions := m.SplitAt(0)
		for _, rs := range regions {
			if rs.Region.Name == "edge-scratch" {
				live = true
			}
		}
		if live != wantLive {
			t.Errorf("%v: scratch live = %v, want %v", v, live, wantLive)
		}
	}
	check(Baseline, true)
	check(Optimized, false)
}

func TestDegreeSkewGrowsWithScale(t *testing.T) {
	maxDeg := func(scale int) float64 {
		b := New(scale)
		b.Roots = 1
		m := machine.New(machine.Default())
		b.Run(m)
		mx := int32(0)
		for v := 0; v < b.NVerts; v++ {
			if d := b.offsets[v+1] - b.offsets[v]; d > mx {
				mx = d
			}
		}
		return float64(mx) / float64(2*b.AvgDeg)
	}
	if maxDeg(2) <= maxDeg(1) {
		t.Errorf("rMAT skew (max/avg degree) should grow with scale")
	}
}

func TestRMATQuadrantBias(t *testing.T) {
	b := New(1)
	b.Roots = 1
	m := machine.New(machine.Default())
	b.Run(m)
	// Low-id vertices should have much higher degree mass than high-id
	// ones under (a,b,c,d)=(0.57,...).
	half := b.NVerts / 2
	lowMass, highMass := int64(0), int64(0)
	for v := 0; v < b.NVerts; v++ {
		d := int64(b.offsets[v+1] - b.offsets[v])
		if v < half {
			lowMass += d
		} else {
			highMass += d
		}
	}
	if lowMass < 2*highMass {
		t.Errorf("rMAT bias missing: low-half mass %d vs high-half %d", lowMass, highMass)
	}
}

func TestFreedScratchCapacityReused(t *testing.T) {
	b := small(Optimized)
	probe := small(Optimized)
	mp := machine.New(machine.Default())
	probe.Run(mp)
	local := mp.PeakFootprint() / 2
	m := machine.New(machine.Default().WithLocalCapacity(local))
	b.Run(m)
	// After freeing the scratch, dynamic frontiers should have found local
	// space: local tier should not be empty at end of run.
	_, regions := m.SplitAt(local)
	localPages := 0
	for _, rs := range regions {
		localPages += rs.LocalPages
	}
	if localPages == 0 {
		t.Errorf("local tier unused despite freed scratch")
	}
}
