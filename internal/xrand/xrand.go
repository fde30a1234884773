// Package xrand provides small, fast, deterministic pseudo-random number
// generators for reproducible fault-injection experiments.
//
// Every experiment in this repository is driven by a seed; the same seed
// must always produce the same transcript. The generators here are
// xoshiro256** instances seeded through SplitMix64, following the
// reference implementations by Blackman and Vigna. Streams can be split
// so that independent subsystems (fault injectors, workloads, device
// models) draw from statistically independent sequences while remaining
// a pure function of the root seed.
package xrand

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; split independent streams instead of sharing one.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Any seed, including zero, is
// valid: the state is expanded through SplitMix64 so that no xoshiro
// state is ever all-zero.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	return r
}

// splitMix64 advances the SplitMix64 state and returns the next state and
// output value.
func splitMix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next value in the sequence.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9

	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)

	return result
}

// Split returns a new generator whose stream is independent of r's. The
// child is derived from r's output, so splitting is itself deterministic.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// ErrInvalidState reports a generator state no xoshiro256** instance can
// occupy: the all-zero state is a fixed point of the transition function
// (the stream would be constant zero), and New's SplitMix64 expansion
// can never produce it. Restoring such a state is always a decoding bug
// or corruption, never a legitimate resume.
var ErrInvalidState = errors.New("xrand: all-zero generator state")

// State returns the generator's complete internal state. Together with
// SetState it makes the PRNG stream checkpointable: a generator restored
// from a captured state continues the exact output sequence the original
// would have produced, which is what lets an interrupted campaign resume
// byte-identically (see internal/checkpoint).
func (r *Rand) State() [4]uint64 { return r.s }

// SetState replaces the generator's internal state with one previously
// obtained from State. It rejects the all-zero state with
// ErrInvalidState.
func (r *Rand) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return ErrInvalidState
	}
	r.s = s
	return nil
}

// Restore builds a generator positioned at a previously captured state.
func Restore(s [4]uint64) (*Rand, error) {
	r := &Rand{}
	if err := r.SetState(s); err != nil {
		return nil, err
	}
	return r, nil
}

// MarshalBinary implements encoding.BinaryMarshaler: 32 bytes of
// little-endian state words.
func (r *Rand) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 32)
	for _, w := range r.s {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, accepting only
// the exact 32-byte encoding MarshalBinary produces.
func (r *Rand) UnmarshalBinary(data []byte) error {
	if len(data) != 32 {
		return fmt.Errorf("xrand: state must be 32 bytes, got %d", len(data))
	}
	var s [4]uint64
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return r.SetState(s)
}

// Seeds derives n independent seeds from root through SplitMix64. The
// result is a pure function of root, so replica i of a parallel
// experiment campaign gets the same seed no matter how many workers run
// the campaign or in what order tasks complete.
func Seeds(root uint64, n int) []uint64 {
	out := make([]uint64, n)
	sm := root
	for i := range out {
		sm, out[i] = splitMix64(sm)
	}
	return out
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Rand) Float64() float64 {
	// Use the top 53 bits for a full-precision mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if
// n <= 0, mirroring math/rand.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// multiply-shift rejection method.
func (r *Rand) boundedUint64(bound uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return hi
}

// Bool returns true with probability p. Values of p <= 0 always return
// false; values >= 1 always return true.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Misses draws until a draw falls below thresh or n draws have been
// made, and reports how many draws did not and whether one did. With
// thresh = HitThreshold(p), a draw falls below it exactly when Bool(p)
// would return true, so the stream advances as that many Bool(p) calls
// would: one Uint64 per draw. Bool draws nothing when p <= 0 or p >= 1,
// so there the caller answers without calling Misses (n misses, or a
// hit at once).
//
// It is Bool in a loop with the state words held in locals and the hit
// test done on the raw draw, so a long run of misses costs a few
// register operations per draw.
func (r *Rand) Misses(thresh uint64, n int64) (misses int64, hit bool) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; misses < n; misses++ {
		// The Uint64 transition, on the locals.
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		if u < thresh {
			hit = true
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return misses, hit
}

// HitThreshold returns the integer t with u < t exactly when draw u,
// read as Float64 reads it, falls below p, for 0 < p < 1: the hit test
// of Misses and Misses4, computed once per probability. Float64 is
// (u>>11)/2^53, so the test is u>>11 < p·2^53; the scaling is exact,
// and u>>11 is an integer, so that holds exactly when u>>11 <
// ⌈p·2^53⌉, that is when u < ⌈p·2^53⌉·2^11. p < 1 keeps ⌈p·2^53⌉ at
// most 2^53−1, so the shift cannot overflow. Outside (0, 1) the result
// means nothing.
func HitThreshold(p float64) uint64 { return uint64(math.Ceil(p*(1<<53))) << 11 }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
// Multiply by a mean to rescale. Used for inter-arrival times of fault
// bursts.
func (r *Rand) ExpFloat64() float64 {
	// Inverse-CDF sampling; guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}
