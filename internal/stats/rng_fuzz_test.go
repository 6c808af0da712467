package stats

import "testing"

// FuzzStreamSplit fuzzes the substream derivation invariants the whole
// concurrent experiment engine rests on:
//
//   - the table-driven LongJump lands on exactly the state the jump
//     polynomial does, from the fuzzed base state;
//   - Substreams(n)[i] is exactly Stream(i), for every i — the two
//     derivation paths must agree so sequential and parallel sweeps see
//     the same substreams;
//   - re-deriving Stream(i) yields the same stream (derivation is a pure
//     function of base state and index, and never advances the base);
//   - distinct substreams do not collide on their opening draws (the jump
//     polynomial spacing is doing its job), and none replays the base
//     stream.
//
// `go test` replays the seed corpus; `go test -fuzz FuzzStreamSplit
// ./internal/stats` explores new seeds.
func FuzzStreamSplit(f *testing.F) {
	f.Add(uint64(0), uint8(2))
	f.Add(uint64(1), uint8(16))
	f.Add(uint64(0xdeadbeef), uint8(7))
	f.Add(uint64(1)<<63, uint8(32))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		n := int(nRaw%32) + 2
		base := NewRNG(seed)
		baseState := *base

		table, poly := *base, *base
		table.LongJump()
		poly.applyJump(longJumpPoly)
		if table != poly {
			t.Fatalf("seed %#x: table long jump %#x, polynomial %#x", seed, table.s, poly.s)
		}

		subs := NewRNG(seed).Substreams(n)
		if len(subs) != n {
			t.Fatalf("Substreams(%d) returned %d streams", n, len(subs))
		}
		for i := 0; i < n; i++ {
			a, b := base.Stream(i), &subs[i]
			for k := 0; k < 4; k++ {
				if av, bv := a.Uint64(), b.Uint64(); av != bv {
					t.Fatalf("seed %#x: Stream(%d) draw %d = %#x, Substreams[%d] = %#x",
						seed, i, k, av, i, bv)
				}
			}
		}
		if *base != baseState {
			t.Fatalf("seed %#x: Stream advanced the base generator", seed)
		}

		// Re-derivation determinism.
		i := n / 2
		x, y := base.Stream(i), base.Stream(i)
		for k := 0; k < 4; k++ {
			if xv, yv := x.Uint64(), y.Uint64(); xv != yv {
				t.Fatalf("seed %#x: re-derived Stream(%d) diverged at draw %d: %#x vs %#x",
					seed, i, k, xv, yv)
			}
		}

		// No collisions on the opening draws across substreams and the base
		// stream itself. Each value is a fresh 64-bit draw from a stream
		// 2^192 steps from its neighbours; any equality is a derivation bug,
		// not chance.
		seen := map[uint64]int{NewRNG(seed).Uint64(): -1}
		for j, r := range NewRNG(seed).Substreams(n) {
			v := r.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("seed %#x: streams %d and %d opened with the same draw %#x",
					seed, prev, j, v)
			}
			seen[v] = j
		}
	})
}
