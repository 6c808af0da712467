// Package stats provides deterministic random number generation and the
// descriptive statistics used throughout the experiment drivers: percentiles,
// five-number summaries, means, and least-squares fits.
//
// All experiments in this repository must be reproducible run-to-run, so the
// package deliberately offers only explicitly seeded generators. For
// parallel fan-out the RNG is splittable: Stream and Substreams derive
// independent, non-overlapping substreams, so every parallel task can own
// a deterministic generator whose output depends only on the base seed and
// the task index — never on worker count or scheduling order.
//
// Substream i is the base state advanced by i+1 xoshiro long jumps of
// 2^192 steps. The long jump is linear over GF(2), so it is built once at
// package init, by running the jump polynomial on the 256 unit states,
// into a 32 KiB table applied as 64 row XORs per jump. The states are bit
// for bit those of the polynomial form, at about 0.2 µs per substream
// where stepping the generator 256 times took 1–1.6 µs (Intel Xeon, one
// core).
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
// realistic fan-out can consume. It lands on exactly the state
// applyJump(longJumpPoly) does, by longJumpTable: 64 row XORs instead of
// 256 generator steps.
func (r *RNG) LongJump() {
	var s0, s1, s2, s3 uint64
	for w, x := range r.s {
		rows := longJumpTable[16*w : 16*w+16]
		for k := range rows {
			row := &rows[k][x>>(4*k)&15]
			s0 ^= row[0]
			s1 ^= row[1]
			s2 ^= row[2]
			s3 ^= row[3]
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// longJumpTable is the long jump as a linear map over GF(2), built once:
// a generator step only XORs, shifts and rotates state words, and
// applyJump XOR-accumulates states, so the jump of a state is the XOR of
// the jumps of its set bits. Row [p][v] is the jump of the state whose
// only set bits are nibble value v at nibble position p (word p/16, bits
// 4·(p%16) up), so a state's jump is the XOR of one row per nibble. The
// table is a package-level array of 32 KiB, so it adds nothing to the heap.
var longJumpTable = jumpTable(longJumpPoly)

// jumpTable runs applyJump(poly) on the 256 unit states and combines their
// images into the rows of every nibble value.
func jumpTable(poly [4]uint64) [64][16][4]uint64 {
	var t [64][16][4]uint64
	for p := range t {
		for b := 0; b < 4; b++ {
			var unit RNG
			unit.s[p/16] = 1 << uint(4*(p%16)+b)
			unit.applyJump(poly)
			t[p][1<<b] = unit.s
		}
		for v := 1; v < 16; v++ {
			if low := v & -v; low != v {
				for w := range t[p][v] {
					t[p][v][w] = t[p][low][w] ^ t[p][v^low][w]
				}
			}
		}
	}
	return t
}

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

// Substreams returns n independent generators, Stream(0) through
// Stream(n-1), by value in one contiguous slice: one allocation and n long
// jumps, for Monte-Carlo fan-outs that create distributions in a hot loop.
// Substreams(n)[i] generates exactly the same sequence as Stream(i);
// parallel tasks may each advance their own element concurrently.
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
