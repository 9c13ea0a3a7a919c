package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewMatrixZeroInitialized(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed: At(0,0) = %v, want 9", m.At(0, 0))
	}
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Errorf("Add failed: At(0,0) = %v, want 10", m.At(0, 0))
	}
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Errorf("Row(1) = %v, want [3 4]", r)
	}
	// Row must be a copy.
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Error("Row returned a view, want a copy")
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p := a.Mul(Identity(3))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	p := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Errorf("p(%d,%d) = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := a.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T dims = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v %v", tr.At(2, 1), tr.At(0, 1))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = L·Lᵀ with L = [[2,0],[1,3]] → A = [[4,2],[2,10]].
	a := FromRows([][]float64{{4, 2}, {2, 10}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	if !almostEqual(l.At(0, 0), 2, 1e-12) || !almostEqual(l.At(1, 0), 1, 1e-12) || !almostEqual(l.At(1, 1), 3, 1e-12) {
		t.Errorf("L = [[%v,%v],[%v,%v]], want [[2,0],[1,3]]", l.At(0, 0), l.At(0, 1), l.At(1, 0), l.At(1, 1))
	}
	if l.At(0, 1) != 0 {
		t.Error("L not lower triangular")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSolveLowerUpper(t *testing.T) {
	l := FromRows([][]float64{{2, 0}, {1, 3}})
	x, err := SolveLower(l, []float64{4, 11})
	if err != nil {
		t.Fatalf("SolveLower: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("SolveLower x = %v, want [2 3]", x)
	}
	u := FromRows([][]float64{{2, 1}, {0, 3}})
	x, err = SolveUpper(u, []float64{7, 9})
	if err != nil {
		t.Fatalf("SolveUpper: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("SolveUpper x = %v, want [2 3]", x)
	}
}

func TestSolveSingularReturnsError(t *testing.T) {
	l := FromRows([][]float64{{0, 0}, {1, 3}})
	if _, err := SolveLower(l, []float64{1, 2}); err == nil {
		t.Error("SolveLower: expected singular error")
	}
	u := FromRows([][]float64{{2, 1}, {0, 0}})
	if _, err := SolveUpper(u, []float64{1, 2}); err == nil {
		t.Error("SolveUpper: expected singular error")
	}
}

func TestCholSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		// Build SPD matrix A = BᵀB + n·I.
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		a := b.T().Mul(b)
		AddDiagonal(a, float64(n))
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs := a.MulVec(xTrue)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: Cholesky: %v", trial, err)
		}
		x, err := CholSolve(l, rhs)
		if err != nil {
			t.Fatalf("trial %d: CholSolve: %v", trial, err)
		}
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
}

// Property: (AᵀA + I) is always SPD, so Cholesky must succeed and the
// reconstruction L·Lᵀ must equal the input.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		a := b.T().Mul(b)
		AddDiagonal(a, 1)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		rec := l.Mul(l.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(rec.At(i, j), a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// spdMatrix builds a random SPD matrix A = BᵀB + n·I.
func spdMatrix(n int, seed int64) *Matrix {
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

func TestCholeskyInPlaceMatchesCholesky(t *testing.T) {
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130} {
		a := spdMatrix(n, int64(n))
		want, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: Cholesky: %v", n, err)
		}
		got := a.Clone()
		if err := CholeskyInPlace(got); err != nil {
			t.Fatalf("n=%d: CholeskyInPlace: %v", n, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("n=%d: in-place factor differs at (%d,%d): %v vs %v", n, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// The extension contract: factoring the leading block first and then
// extending must give the same bits as factoring the full matrix at
// once. The GP's incremental refit (and its checkpoint-replay
// determinism) rests on this.
func TestCholeskyExtendMatchesFullBitwise(t *testing.T) {
	for _, tc := range []struct{ n, start int }{
		{10, 4}, {50, 30}, {130, 64}, {130, 65}, {130, 100}, {40, 0}, {40, 40},
	} {
		a := spdMatrix(tc.n, int64(tc.n+tc.start))
		full := a.Clone()
		if err := CholeskyInPlace(full); err != nil {
			t.Fatalf("n=%d: full: %v", tc.n, err)
		}
		// Factor the leading start×start block separately.
		lead := NewMatrix(max(tc.start, 1), max(tc.start, 1))
		for i := 0; i < tc.start; i++ {
			copy(lead.RawRow(i)[:i+1], a.RawRow(i)[:i+1])
		}
		if tc.start > 0 {
			if err := CholeskyExtendInPlace(lead, 0); err != nil {
				t.Fatalf("n=%d start=%d: leading block: %v", tc.n, tc.start, err)
			}
		}
		// Assemble the extension input: factored rows, then raw rows.
		ext := a.Clone()
		for i := 0; i < tc.start; i++ {
			copy(ext.RawRow(i)[:i+1], lead.RawRow(i)[:i+1])
		}
		if err := CholeskyExtendInPlace(ext, tc.start); err != nil {
			t.Fatalf("n=%d start=%d: extend: %v", tc.n, tc.start, err)
		}
		for i := 0; i < tc.n; i++ {
			for j := 0; j <= i; j++ {
				if ext.At(i, j) != full.At(i, j) {
					t.Fatalf("n=%d start=%d: extension differs at (%d,%d): %v vs %v",
						tc.n, tc.start, i, j, ext.At(i, j), full.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyExtendRejectsBadStart(t *testing.T) {
	a := spdMatrix(4, 1)
	if err := CholeskyExtendInPlace(a, -1); err == nil {
		t.Error("negative start accepted")
	}
	if err := CholeskyExtendInPlace(a, 5); err == nil {
		t.Error("start beyond n accepted")
	}
}

// The 4-wide solve must give each right-hand side the bits of its own
// single solve: the GP's batched prediction is bitwise equal to
// per-candidate Predict only because of this.
func TestSolveLower4MatchesSolveLowerBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 37, 130} {
		l, err := Cholesky(spdMatrix(n, int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		var b, x [4][]float64
		for c := range b {
			b[c] = make([]float64, n)
			for i := range b[c] {
				b[c][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
			x[c] = make([]float64, n)
		}
		keep := [4][]float64{append([]float64(nil), b[0]...), append([]float64(nil), b[1]...),
			append([]float64(nil), b[2]...), append([]float64(nil), b[3]...)}
		if err := SolveLower4Into(l, b, x); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for c := range b {
			if err := SolveLowerInto(l, b[c], want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if x[c][i] != want[i] {
					t.Fatalf("n=%d rhs %d row %d: %v != %v", n, c, i, x[c][i], want[i])
				}
				if b[c][i] != keep[c][i] {
					t.Fatalf("n=%d: SolveLower4Into modified b[%d]", n, c)
				}
			}
		}
	}
}

func TestSolveLower4Singular(t *testing.T) {
	l := FromRows([][]float64{{1, 0}, {2, 0}})
	var b, x [4][]float64
	for c := range b {
		b[c], x[c] = []float64{1, 1}, make([]float64, 2)
	}
	if err := SolveLower4Into(l, b, x); err == nil {
		t.Error("SolveLower4Into accepted singular L")
	}
}

func TestCholSolveIntoMatchesCholSolve(t *testing.T) {
	l, err := Cholesky(spdMatrix(23, 5))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 23)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	want, err := CholSolve(l, b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(b))
	if err := CholSolveInto(l, b, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("x[%d]: CholSolveInto %v != CholSolve %v", i, got[i], want[i])
		}
	}
}

// ResizeLower must carry the kept lower triangles across every kind of
// reshape: growth inside the capacity (rows moved last-to-first),
// shrinking (first-to-last), and growth past it (a fresh buffer).
func TestResizeLowerKeepsLowerTriangle(t *testing.T) {
	var m Matrix
	fill := func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				m.Set(i, j, float64(1000*i+j))
			}
		}
	}
	check := func(n, keep int) {
		t.Helper()
		if m.Rows() != n || m.Cols() != n {
			t.Fatalf("shape %dx%d, want %dx%d", m.Rows(), m.Cols(), n, n)
		}
		for i := 0; i < keep; i++ {
			for j := 0; j <= i; j++ {
				if m.At(i, j) != float64(1000*i+j) {
					t.Fatalf("n=%d keep=%d: (%d,%d) = %v", n, keep, i, j, m.At(i, j))
				}
			}
		}
	}
	if !m.ResizeLower(20, 0) {
		t.Fatal("first resize of the zero Matrix must allocate")
	}
	fill(20)
	for _, step := range []struct {
		n, keep int
		alloc   bool
	}{
		{25, 20, false}, // grow within the 25-row headroom
		{9, 7, false},   // shrink
		{24, 9, false},  // grow again within capacity
		{40, 24, true},  // grow past capacity
		{40, 40, false}, // same shape
	} {
		if got := m.ResizeLower(step.n, step.keep); got != step.alloc {
			t.Fatalf("ResizeLower(%d, %d) allocated=%v, want %v", step.n, step.keep, got, step.alloc)
		}
		check(step.n, step.keep)
		fill(step.n)
	}
	defer func() {
		if recover() == nil {
			t.Error("keep beyond the current rows accepted")
		}
	}()
	m.ResizeLower(50, 41)
}

func TestRawRowIsAView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.RawRow(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("RawRow must alias matrix storage")
	}
}

// Property: Dot(x, x) == Norm2(x)².
func TestDotNormProperty(t *testing.T) {
	f := func(v []float64) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true // skip degenerate inputs
			}
		}
		n := Norm2(v)
		return almostEqual(Dot(v, v), n*n, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
