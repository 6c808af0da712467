package main

import (
	"math/rand/v2"
	"strconv"
	"strings"

	"repro"
)

// Every input a run sends the program derives from --seed. Inputs are
// generated as they are needed, so the generator's own memory does not
// show in the memory metrics, and a traced run's decomposed ops come from
// a stream of their own that starts on a block boundary whatever the
// timed phase reached: their work counts repeat exactly.

// Streams of the run's generators, one per workload and phase.
const (
	coldStream = 1 + iota
	coldTracedStream
	warmStream
	warmTracedStream
	sweepStream
	sweepTracedStream
)

// blocks yields an op sequence in consecutive blocks, each a seeded
// permutation of block, so every block holds each element exactly as often
// as block does.
type blocks[T any] struct {
	r     *rand.Rand
	block []T
	left  []T
}

func newBlocks[T any](p params, stream uint64, block []T) *blocks[T] {
	return &blocks[T]{r: p.rng(stream), block: block}
}

func (b *blocks[T]) next() T {
	if len(b.left) == 0 {
		b.left = make([]T, len(b.block))
		for i, j := range b.r.Perm(len(b.block)) {
			b.left[i] = b.block[j]
		}
	}
	x := b.left[0]
	b.left = b.left[1:]
	return x
}

// axes yields sweep-job's latency axes. Value j of every axis is 10·j ns
// plus a seeded fraction in (0, 1), so every op sweeps the same range and
// does the same work, and an axis is never yielded twice by any of the
// generators sharing seen: a job id hashes its grid, and a grid submitted
// before would re-attach to its finished job and do nothing.
type axes struct {
	r    *rand.Rand
	seen map[string]bool
}

func newAxes(p params, stream uint64, seen map[string]bool) *axes {
	return &axes{r: p.rng(stream), seen: seen}
}

func (a *axes) next() repro.SweepAxis {
	for {
		ax := repro.SweepAxis{Name: "lat", Values: make([]float64, sweepCells)}
		vals := make([]string, sweepCells)
		for j := range ax.Values {
			ax.Values[j] = 10*float64(j) + float64(1+a.r.IntN(999))/1000
			vals[j] = strconv.FormatFloat(ax.Values[j], 'g', -1, 64)
		}
		if key := strings.Join(vals, ","); !a.seen[key] {
			a.seen[key] = true
			return ax
		}
	}
}
