// Package stats provides deterministic random number generation and the
// descriptive statistics used throughout the experiment drivers: percentiles,
// five-number summaries, means, and least-squares fits.
//
// All experiments in this repository must be reproducible run-to-run, so the
// package deliberately offers only explicitly seeded generators. For
// parallel fan-out the RNG is splittable: Stream and Split derive
// independent, non-overlapping substreams via the xoshiro jump functions,
// so every parallel task can own a deterministic generator whose output
// depends only on the base seed and the task index — never on worker count
// or scheduling order.
package stats

// RNG is a deterministic 64-bit pseudo-random generator (xoshiro256**).
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, so that
// closely spaced seeds still produce well-separated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// jumpPoly and longJumpPoly are the xoshiro256** jump polynomials: applying
// jump advances the generator 2^128 steps, longJump 2^192 steps, without
// generating the intermediate values.
var (
	jumpPoly     = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	longJumpPoly = [4]uint64{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}
)

func (r *RNG) applyJump(poly [4]uint64) {
	var s0, s1, s2, s3 uint64
	for _, p := range poly {
		for b := 0; b < 64; b++ {
			if p&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Jump advances the generator by 2^128 steps, as if Uint64 had been called
// 2^128 times. Successive jumps partition the full 2^256-1 period into
// non-overlapping subsequences of 2^128 values each.
func (r *RNG) Jump() { r.applyJump(jumpPoly) }

// LongJump advances the generator by 2^192 steps, yielding up to 2^64
// starting points spaced 2^192 values apart — far more separation than any
// realistic fan-out can consume.
func (r *RNG) LongJump() { r.applyJump(longJumpPoly) }

// Stream returns an independent generator for parallel task i: a copy of
// r's current state advanced by i+1 long-jumps, so streams for distinct i
// are guaranteed non-overlapping for at least 2^192 draws. The receiver is
// not advanced, and concurrent Stream calls on a shared base generator are
// safe as long as nothing mutates the base. Stream(i) depends only on r's
// state and i — never on worker count or completion order — which is what
// makes parallel Monte-Carlo sweeps byte-identical to their sequential
// counterparts. It panics if i is negative.
func (r *RNG) Stream(i int) *RNG {
	if i < 0 {
		panic("stats: Stream with negative index")
	}
	sub := &RNG{s: r.s}
	for k := 0; k <= i; k++ {
		sub.LongJump()
	}
	return sub
}

// Split returns n independent generators, Stream(0) through Stream(n-1),
// for handing one substream to each of n parallel tasks.
func (r *RNG) Split(n int) []*RNG {
	out := make([]*RNG, 0, n)
	sub := &RNG{s: r.s}
	for i := 0; i < n; i++ {
		sub.LongJump()
		out = append(out, &RNG{s: sub.s})
	}
	return out
}

// Substreams is Split returning the generators by value in one contiguous
// slice — a single allocation instead of n+1, for Monte-Carlo fan-outs that
// create distributions in a hot loop. Substreams(n)[i] generates exactly
// the same sequence as Stream(i); parallel tasks may each advance their own
// element concurrently.
func (r *RNG) Substreams(n int) []RNG {
	out := make([]RNG, n)
	sub := RNG{s: r.s}
	for i := 0; i < n; i++ {
		sub.LongJump()
		out[i] = sub
	}
	return out
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
