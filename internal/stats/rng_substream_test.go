package stats

import "testing"

func TestJumpMatchesManualAdvance(t *testing.T) {
	// Jump must land on a state different from any nearby manual advance
	// and remain deterministic: two identical generators jump to identical
	// states.
	a, b := NewRNG(42), NewRNG(42)
	a.Jump()
	b.Jump()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("identical jumps diverged at step %d", i)
		}
	}
}

func TestStreamDeterministicAndIndependentOfOrder(t *testing.T) {
	base := NewRNG(7)
	// Stream(i) must depend only on (state, i): requesting streams in any
	// order, or repeatedly, yields identical generators.
	s2a := base.Stream(2)
	s0 := base.Stream(0)
	s2b := base.Stream(2)
	for i := 0; i < 100; i++ {
		if s2a.Uint64() != s2b.Uint64() {
			t.Fatalf("Stream(2) not reproducible at step %d", i)
		}
	}
	// The base generator must not have been advanced by Stream calls.
	fresh := NewRNG(7)
	for i := 0; i < 10; i++ {
		if base.Uint64() != fresh.Uint64() {
			t.Fatal("Stream advanced the base generator")
		}
	}
	_ = s0
}

func TestStreamsDoNotOverlap(t *testing.T) {
	// Draw a window from each of several substreams and check pairwise
	// disjointness. Streams are spaced 2^192 steps apart, so any collision
	// in a 64-bit value window would be an implementation bug (the chance
	// of a birthday collision between honest streams over 4000 draws is
	// ~4e-13).
	base := NewRNG(99)
	const streams, draws = 8, 500
	seen := make(map[uint64]int, streams*draws)
	for i := 0; i < streams; i++ {
		r := base.Stream(i)
		for d := 0; d < draws; d++ {
			v := r.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d produced the same value %#x", prev, i, v)
			}
			seen[v] = i
		}
	}
}

// TestSplitMatchesStream splits one base generator at several fan-out
// widths: every split is Stream(0) through Stream(n-1), so a narrower split
// is a prefix of a wider one, and splitting never advances the base.
func TestSplitMatchesStream(t *testing.T) {
	base := NewRNG(1234)
	for _, n := range []int{0, 1, 5, 64} {
		subs := base.Substreams(n)
		if len(subs) != n {
			t.Fatalf("Substreams(%d) returned %d generators", n, len(subs))
		}
		for i := range subs {
			want := base.Stream(i)
			for d := 0; d < 50; d++ {
				if subs[i].Uint64() != want.Uint64() {
					t.Fatalf("Substreams(%d)[%d] diverged from Stream(%d) at draw %d", n, i, i, d)
				}
			}
		}
	}
	if fresh := NewRNG(1234); *base != *fresh {
		t.Fatal("Substreams advanced the base generator")
	}
}

func TestSubstreamsMatchStream(t *testing.T) {
	base := NewRNG(1234)
	subs := base.Substreams(5)
	if len(subs) != 5 {
		t.Fatalf("Substreams(5) returned %d generators", len(subs))
	}
	for i := range subs {
		want := base.Stream(i)
		for d := 0; d < 50; d++ {
			if subs[i].Uint64() != want.Uint64() {
				t.Fatalf("Substreams[%d] diverged from Stream(%d) at draw %d", i, i, d)
			}
		}
	}
}

// TestLongJumpTableMatchesPolynomial holds the table-driven LongJump to the
// jump polynomial it was built from: the zero state, every unit state (the
// table's own inputs), the all-ones state and a few thousand seeded states
// must land on the same state both ways.
func TestLongJumpTableMatchesPolynomial(t *testing.T) {
	states := [][4]uint64{{}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
	for b := 0; b < 256; b++ {
		var s [4]uint64
		s[b/64] = 1 << uint(b%64)
		states = append(states, s)
	}
	seeded := NewRNG(2023)
	for i := 0; i < 4096; i++ {
		states = append(states, [4]uint64{seeded.Uint64(), seeded.Uint64(), seeded.Uint64(), seeded.Uint64()})
	}
	for _, s := range states {
		table, poly := RNG{s: s}, RNG{s: s}
		table.LongJump()
		poly.applyJump(longJumpPoly)
		if table != poly {
			t.Fatalf("long jump of %#x: table %#x, polynomial %#x", s, table.s, poly.s)
		}
	}
}

// TestSubstreamsKnownAnswer pins the substream states of three seeds, as
// the bit-serial polynomial jump derived them. Every Monte-Carlo artifact
// rests on these states; a derivation that moves them changes every
// golden.
func TestSubstreamsKnownAnswer(t *testing.T) {
	want := map[uint64][3][4]uint64{
		1: {
			{0x7246d2ee04b0ca0d, 0x9fbe4f237a8bd3ef, 0x2aed86dc6ea00584, 0x6742ebbb2f90ff4a},
			{0xb597322493a160be, 0xa1d2375080e1a0ad, 0x2c786c31f7c4571b, 0xe394ced12e93af27},
			{0x6edb31defb20b6d8, 0x86d1a52b694c0806, 0xd6dda1251bc281de, 0x2e878e1621ce58ea},
		},
		20240611: {
			{0xa500fd8d33a55089, 0x6aec5f21b6f759d4, 0xa4b48daf3330081e, 0xc9da2f6a43cdf440},
			{0xf2683e14d8a33cd6, 0x2546e1ad7b7a8217, 0x91d479275de04135, 0x21d5357305bee49d},
			{0xc61a6ff6d7449e70, 0xcd2ba88567781c56, 0x62d3b9b0e7908161, 0x6ff24515c4e2d3a0},
		},
		0xdeadbeefcafef00d: {
			{0xa9bd9ce28b2c7a69, 0x3b854ae69d97fdd6, 0x357746aaf803a091, 0xb5be0aa8c33d6d8f},
			{0xd98679768dd18a2e, 0x0827d1409cb6e963, 0x6a7b81b175bbae8c, 0x0c271545f8545aae},
			{0x7bd63aa0577aefd3, 0x282ad0c7fc3a1359, 0xda28e968eb557810, 0x5a1b6c1ae56cb4a5},
		},
	}
	for seed, states := range want {
		for i, sub := range NewRNG(seed).Substreams(3) {
			if sub.s != states[i] {
				t.Errorf("seed %#x: Substreams(3)[%d] = %#x, want %#x", seed, i, sub.s, states[i])
			}
		}
	}
}

// BenchmarkSubstreams derives the substreams of one Monte-Carlo
// distribution at the paper's run count.
func BenchmarkSubstreams(b *testing.B) {
	base := NewRNG(1)
	b.ReportAllocs()
	for b.Loop() {
		base.Substreams(100)
	}
}

func TestStreamNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stream(-1) should panic")
		}
	}()
	NewRNG(1).Stream(-1)
}
