// Package xsbench implements the Monte Carlo neutron transport proxy of the
// paper's Table 2 (XSBench): macroscopic cross-section lookups against a
// unionized energy grid.
//
// The structure mirrors the original proxy app: per-nuclide energy grids
// with interpolated cross-section values, a unionized energy grid over all
// nuclides, and an index grid mapping each unionized point to the bracketing
// gridpoint of every nuclide. Lookups binary-search the unionized energies,
// read one index-grid row, and gather two gridpoints from every nuclide.
//
// The memory behaviour reproduces the paper's findings: the index grid
// dominates the footprint but receives only a couple of cacheline touches
// per lookup, while the (much smaller) energy and nuclide arrays take the
// dense traffic — so the remote access ratio stays low (<6%) at every
// pooling configuration (Figure 9), prefetch coverage is near zero
// (Figure 8), and performance is latency-bound rather than bandwidth-bound
// (§5.1).
package xsbench

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// NumXS is the number of cross-section channels per gridpoint
// (total, elastic, absorption, fission, nu-fission) plus the energy itself.
const NumXS = 6

// XSBench is one proxy-app instance.
type XSBench struct {
	// Nuclides is the nuclide count; Gridpoints the per-nuclide energy
	// gridpoint count; Lookups the number of macro-XS queries.
	Nuclides, Gridpoints, Lookups int
	seed                          uint64

	// After Run: Checksum accumulates the computed macro cross-sections
	// (the XSBench verification hash analogue).
	Checksum float64
}

// New returns an XSBench instance at input scale 1, 2 or 4 (gridpoints
// double per step, like the paper's 11303/22606/45212 inputs).
func New(scale int) *XSBench {
	g := 1500
	switch scale {
	case 2:
		g = 3000
	case 4:
		g = 6000
	}
	return &XSBench{Nuclides: 64, Gridpoints: g, Lookups: 20000, seed: 0x5b}
}

// Name implements workloads.Workload.
func (x *XSBench) Name() string { return "XSBench" }

// Run implements workloads.Workload.
func (x *XSBench) Run(m *machine.Machine) {
	nn, g := x.Nuclides, x.Gridpoints
	ug := nn * g
	rng := stats.NewRNG(x.seed)

	// ---- p1: grid initialization ----------------------------------------
	// Allocation order matters for the tiering profile: the small, hot
	// structures (unionized energies, nuclide grids) come first and land
	// in the local tier; the huge index grid comes last and spills.
	m.StartPhase("p1")

	// Per-nuclide energy grids: sorted uniform randoms in (0,1).
	nuclideEnergy := make([][]float64, nn)
	nucGrids := workloads.NewVec(m, "nuclide-grids", nn*g*NumXS)
	for n := 0; n < nn; n++ {
		es := make([]float64, g)
		for i := range es {
			es[i] = rng.Float64()
		}
		sort.Float64s(es)
		nuclideEnergy[n] = es
		base := (n * g) * NumXS
		for i := 0; i < g; i++ {
			rec := base + i*NumXS
			nucGrids.Data[rec] = es[i]
			for c := 1; c < NumXS; c++ {
				// Smooth channel values tied to the energy so linear
				// interpolation is exactly verifiable.
				nucGrids.Data[rec+c] = float64(c) * es[i]
			}
		}
		nucGrids.WriteRange(base, g*NumXS)
		m.AddFlops(float64(g * NumXS))
	}

	// Unionized energy grid: merge of all nuclide energies, sorted.
	union := make([]float64, 0, ug)
	for _, es := range nuclideEnergy {
		union = append(union, es...)
	}
	sort.Float64s(union)
	unionVec := workloads.NewVec(m, "unionized-energies", ug)
	copy(unionVec.Data, union)
	unionVec.WriteRange(0, ug)

	// Index grid: for every unionized point, the bracketing gridpoint
	// index in every nuclide. This is the footprint giant. The emulated
	// grid holds int32 entries; every entry is below g, so the host copy
	// holds them as uint16, half the host memory.
	if g > 1<<16 {
		panic(fmt.Sprintf("xsbench: %d gridpoints per nuclide overflow the uint16 index grid", g))
	}
	index := m.Alloc("index-grid", uint64(ug*nn)*4)
	indexData := make([]uint16, ug*nn)
	rowBytes := uint64(nn) * 4
	cursors := make([]int, nn)
	for u := 0; u < ug; u++ {
		e := union[u]
		row := u * nn
		for n := 0; n < nn; n++ {
			for cursors[n] < g-1 && nuclideEnergy[n][cursors[n]+1] < e {
				cursors[n]++
			}
			indexData[row+n] = uint16(cursors[n])
		}
		m.Write(index.Base+uint64(row)*4, rowBytes)
	}
	m.EndPhase()

	// ---- p2: cross-section lookups ---------------------------------------
	m.StartPhase("p2")
	checksum := 0.0
	macro := make([]float64, NumXS-1)
	recs := make([]int, nn) // each nuclide's lower bracketing record
	tickEvery := x.Lookups / 10
	if tickEvery == 0 {
		tickEvery = 1
	}
	for l := 0; l < x.Lookups; l++ {
		e := rng.Float64()
		// Binary search the unionized energies (simulated touches along
		// the probe path).
		lo, hi := 0, ug-1
		for lo < hi {
			mid := (lo + hi) / 2
			unionVec.ReadRange(mid, 1)
			if unionVec.Data[mid] < e {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		u := lo
		if u == ug {
			u = ug - 1
		}
		// One index-grid row.
		m.Read(index.Base+uint64(u*nn)*4, rowBytes)
		for c := range macro {
			macro[c] = 0
		}
		// Gather the bracketing gridpoints from every nuclide and
		// interpolate each channel: first on the host, then as simulated
		// reads in the same nuclide order. No kernel reads machine state
		// and no host value reaches the machine, so the op stream and the
		// checksum are those of one loop doing both, while the host pass's
		// loads from the grids overlap instead of each waiting behind two
		// simulated reads.
		for n := 0; n < nn; n++ {
			gi := int(indexData[u*nn+n])
			if gi >= g-1 {
				gi = g - 2
			}
			recLo := (n*g + gi) * NumXS
			recHi := recLo + NumXS
			recs[n] = recLo
			eLo := nucGrids.Data[recLo]
			eHi := nucGrids.Data[recHi]
			f := 0.0
			if eHi > eLo {
				f = (e - eLo) / (eHi - eLo)
			}
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			for c := 1; c < NumXS; c++ {
				v := nucGrids.Data[recLo+c] + f*(nucGrids.Data[recHi+c]-nucGrids.Data[recLo+c])
				macro[c-1] += v
			}
		}
		for _, recLo := range recs {
			nucGrids.ReadRange(recLo, NumXS)
			nucGrids.ReadRange(recLo+NumXS, NumXS)
			m.AddFlops(float64(3 + 3*(NumXS-1)))
		}
		checksum += macro[0]
		if (l+1)%tickEvery == 0 {
			m.Tick()
		}
	}
	m.EndPhase()
	x.Checksum = checksum
}
