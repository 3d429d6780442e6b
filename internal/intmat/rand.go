package intmat

import "math/rand"

// RandUnimodular returns a random n×n unimodular matrix built from
// `ops` random elementary row operations applied to the identity
// (row additions with coefficients in [-3, 3] and row swaps). It is
// intended for property-based tests and for randomized re-basing of
// allocation matrices.
func RandUnimodular(rng *rand.Rand, n, ops int) *Mat {
	m := Identity(n)
	if n < 2 {
		return m
	}
	for k := 0; k < ops; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			// row swap instead
			j = (i + 1 + rng.Intn(n-1)) % n
			for c := 0; c < n; c++ {
				vi, vj := m.At(i, c), m.At(j, c)
				m.Set(i, c, vj)
				m.Set(j, c, vi)
			}
			continue
		}
		coef := int64(rng.Intn(7) - 3)
		for c := 0; c < n; c++ {
			m.Set(i, c, mustAdd(m.At(i, c), mustMul(coef, m.At(j, c))))
		}
	}
	return m
}

// Int63ner is the one method RandMat draws with; *rand.Rand has it.
type Int63ner interface{ Int63n(n int64) int64 }

// RandMat returns a random rows×cols matrix with entries uniform in
// [-bound, bound], drawn row-major with one Int63n(2·bound+1) each.
func RandMat(rng Int63ner, rows, cols int, bound int64) *Mat {
	m := Zero(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.Int63n(2*bound+1)-bound)
		}
	}
	return m
}

// RandFullRank returns a random rows×cols matrix of full rank with
// entries bounded by bound; it retries until full rank (tiny matrices,
// terminates almost immediately).
func RandFullRank(rng *rand.Rand, rows, cols int, bound int64) *Mat {
	for {
		m := RandMat(rng, rows, cols, bound)
		if m.FullRank() {
			return m
		}
	}
}
