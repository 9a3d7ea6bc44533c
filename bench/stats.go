package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of vs
// by the exclusive method of Python's statistics.quantiles(vs, n=4), the
// one the acceptance protocol uses, so spreads computed here and there
// agree. One sample is its own quartiles; none gives zeros.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// rng is splitmix64: the benchmark's only source of randomness, seeded
// from -seed so the same seed gives the same job order and inputs.
type rng struct{ state uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{state: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher–Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
