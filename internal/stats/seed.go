package stats

// SeedAt derives the deterministic base seed of one cell of a
// multi-dimensional sweep from the campaign's base seed and the cell's grid
// coordinates. The derivation is a SplitMix64-style mix over the coordinate
// sequence, so nearby coordinates (adjacent grid cells, consecutive
// workload indices) still yield well-separated seeds — unlike the additive
// base+i*k schemes, which collide as soon as two axes' strides interact.
//
// The result depends only on (base, coords...): never on worker count,
// completion order, or how the grid happened to be flattened into task
// indices. Feeding the derived seed to NewRNG (or to sched.CompareLimited,
// which does so internally) therefore gives every sweep cell its own
// independent, reproducible substream — the same per-index contract RNG.Stream provides
// for flat fan-outs, extended to multi-axis grids.
func SeedAt(base uint64, coords ...uint64) uint64 {
	z := base
	for _, c := range coords {
		z += 0x9e3779b97f4a7c15 // golden-ratio increment, as in NewRNG's seeder
		z ^= c
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}
