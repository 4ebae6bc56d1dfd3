// Package gen exercises the globalrand pass: global math/rand draws
// are flagged anywhere in the module, seeded generators never are.
package gen

import "math/rand"

// Shuffle draws from the process-global source.
func Shuffle(n int) int {
	return rand.Intn(n) // want globalrand
}

// Jitter also hits the global source through a float helper.
func Jitter() float64 {
	return rand.Float64() // want globalrand
}

// SeededShuffle builds an explicit generator; the constructors and the
// methods on the returned *rand.Rand are both allowed.
func SeededShuffle(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// Indirect binds the global draw to a variable first; the reference is
// the violation, not the call syntax.
func Indirect(n int) int {
	f := rand.Intn // want globalrand
	return f(n)
}
