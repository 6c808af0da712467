package main

import (
	"slices"
	"testing"
)

func TestBlocksAreSeededPermutations(t *testing.T) {
	take := func(b *blocks[string], n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = b.next()
		}
		return out
	}
	p := params{seed: 1}
	a := take(newBlocks(p, coldStream, coldPlatforms), 30)
	if !slices.Equal(a, take(newBlocks(p, coldStream, coldPlatforms), 30)) {
		t.Fatal("one seed gave two sequences")
	}
	for blk := 0; blk < len(a); blk += len(coldPlatforms) {
		got := slices.Sorted(slices.Values(a[blk : blk+len(coldPlatforms)]))
		if !slices.Equal(got, slices.Sorted(slices.Values(coldPlatforms))) {
			t.Errorf("block at %d is not a permutation: %v", blk, a[blk:blk+len(coldPlatforms)])
		}
	}
	if slices.Equal(a, take(newBlocks(params{seed: 2}, coldStream, coldPlatforms), 30)) {
		t.Error("two seeds gave the same sequence")
	}
}

func TestMixBlockHoldsTheShares(t *testing.T) {
	kinds := warmMix()
	block := mixBlock(kinds)
	if len(block) != warmBlock {
		t.Fatalf("mix block has %d requests, want %d", len(block), warmBlock)
	}
	order := newBlocks(params{seed: 3}, warmStream, block)
	for b := 0; b < 3; b++ {
		counts := make([]int, len(kinds))
		for i := 0; i < warmBlock; i++ {
			counts[order.next()]++
		}
		for i, k := range kinds {
			if counts[i] != k.share {
				t.Errorf("block %d: %s %s sent %d times, want %d", b, k.class, k.query, counts[i], k.share)
			}
		}
	}
}

func TestAxesNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	ops, traced := newAxes(params{seed: 7}, sweepStream, seen), newAxes(params{seed: 7}, sweepTracedStream, seen)
	var all [][]float64
	for i := 0; i < 400; i++ {
		for _, g := range []*axes{ops, traced} {
			ax := g.next()
			if ax.Name != "lat" || len(ax.Values) != sweepCells {
				t.Fatalf("axis %s with %d values", ax.Name, len(ax.Values))
			}
			if err := ax.Validate(); err != nil {
				t.Fatal(err)
			}
			for j, v := range ax.Values {
				if v <= 10*float64(j) || v >= 10*float64(j)+1 {
					t.Fatalf("value %d = %v, want in (%d, %d)", j, v, 10*j, 10*j+1)
				}
			}
			all = append(all, ax.Values)
		}
	}
	if len(seen) != len(all) {
		t.Errorf("%d axes generated, %d distinct", len(all), len(seen))
	}
	again := newAxes(params{seed: 7}, sweepStream, map[string]bool{}).next()
	if !slices.Equal(again.Values, all[0]) {
		t.Error("one seed gave two first axes")
	}
}
