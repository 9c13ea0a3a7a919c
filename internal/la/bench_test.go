package la

import (
	"math/rand"
	"testing"
)

func benchSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.T().Mul(b)
	AddDiagonal(a, float64(n))
	return a
}

func BenchmarkCholesky400(b *testing.B) {
	a := benchSPD(400, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyInPlace400(b *testing.B) {
	a := benchSPD(400, 1)
	buf := NewMatrix(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf.data, a.data)
		if err := CholeskyInPlace(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskyExtend400 measures appending 4 rows to an
// already-factored 396-row block — the per-iteration cost of the GP's
// incremental refit at BO's default batch size.
func BenchmarkCholeskyExtend400(b *testing.B) {
	const n, start = 400, 396
	a := benchSPD(n, 1)
	warm := a.Clone()
	if err := CholeskyExtendInPlace(warm, 0); err != nil {
		b.Fatal(err)
	}
	buf := NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < start; r++ {
			copy(buf.RawRow(r)[:r+1], warm.RawRow(r)[:r+1])
		}
		for r := start; r < n; r++ {
			copy(buf.RawRow(r)[:r+1], a.RawRow(r)[:r+1])
		}
		if err := CholeskyExtendInPlace(buf, start); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveLower4x300 and BenchmarkSolveLowerInto4x300 solve the
// same four right-hand sides against a 300-row factor, the GP's size
// late in a BO-GP calibration: one 4-wide pass against four single
// solves.
func BenchmarkSolveLower4x300(b *testing.B) {
	l, rhs, x := benchSolve4(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SolveLower4Into(l, rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLowerInto4x300(b *testing.B) {
	l, rhs, x := benchSolve4(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range rhs {
			if err := SolveLowerInto(l, rhs[c], x[c]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchSolve4(n int) (*Matrix, [4][]float64, [4][]float64) {
	l, err := Cholesky(benchSPD(n, 1))
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(2))
	var rhs, x [4][]float64
	for c := range rhs {
		rhs[c] = make([]float64, n)
		for i := range rhs[c] {
			rhs[c][i] = rng.NormFloat64()
		}
		x[c] = make([]float64, n)
	}
	return l, rhs, x
}
