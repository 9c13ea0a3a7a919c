package surrogate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simcal/internal/la"
)

// predictSerial scores X with one Predict call per row — the reference
// the batched path must reproduce bit for bit.
func predictSerial(r Regressor, X [][]float64) (mean, std []float64) {
	mean = make([]float64, len(X))
	std = make([]float64, len(X))
	for i, x := range X {
		mean[i], std[i] = r.Predict(x)
	}
	return mean, std
}

// TestPredictBatchBitwiseMatchesSerial: for every regressor and several
// worker counts, PredictBatch must be bitwise identical to the serial
// Predict loop — the contract that keeps parallel acquisition scoring
// reproducible.
func TestPredictBatchBitwiseMatchesSerial(t *testing.T) {
	X, y := trainOn(150, 3, 7, quadratic)
	// Counts that are not multiples of the GP's 4-candidate solve or of
	// the chunk size leave one to three candidates for single solves.
	pool, _ := trainOn(333, 3, 8, quadratic)
	for _, workers := range []int{0, 1, 2, 3, 8} {
		gp := NewGP()
		gp.PredictWorkers = workers
		rf := NewRandomForest(1)
		rf.PredictWorkers = workers
		et := NewExtraTrees(2)
		et.PredictWorkers = workers
		gb := NewGBRT(3)
		gb.PredictWorkers = workers
		for _, r := range []Regressor{gp, rf, et, gb} {
			if err := r.Fit(X, y); err != nil {
				t.Fatalf("%s: Fit: %v", r.Name(), err)
			}
			for _, k := range []int{1, 2, 3, 4, 7, 66, 333} {
				cands := pool[:k]
				wantMean, wantStd := predictSerial(r, cands)
				gotMean := make([]float64, len(cands))
				gotStd := make([]float64, len(cands))
				r.PredictBatch(cands, gotMean, gotStd)
				for i := range cands {
					if gotMean[i] != wantMean[i] || gotStd[i] != wantStd[i] {
						t.Fatalf("%s workers=%d k=%d cand %d: batch (%v, %v) != serial (%v, %v)",
							r.Name(), workers, k, i, gotMean[i], gotStd[i], wantMean[i], wantStd[i])
					}
				}
			}
		}
	}
}

func TestPredictBatchLengthMismatchPanics(t *testing.T) {
	X, y := trainOn(20, 2, 1, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short output slice")
		}
	}()
	g.PredictBatch(X, make([]float64, len(X)-1), make([]float64, len(X)))
}

// TestGPConcurrentScaleSelectionDeterministic: the fitted model must not
// depend on how many goroutines evaluated the length-scale grid.
func TestGPConcurrentScaleSelectionDeterministic(t *testing.T) {
	X, y := trainOn(80, 4, 21, quadratic)
	cands, _ := trainOn(64, 4, 22, quadratic)
	serial := NewGP()
	serial.FitWorkers = 1
	if err := serial.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	wantMean, wantStd := predictSerial(serial, cands)
	for _, workers := range []int{0, 2, 8} {
		g := NewGP()
		g.FitWorkers = workers
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if g.LengthScale() != serial.LengthScale() {
			t.Fatalf("workers=%d: scale %v != serial %v", workers, g.LengthScale(), serial.LengthScale())
		}
		for i, c := range cands {
			m, s := g.Predict(c)
			if m != wantMean[i] || s != wantStd[i] {
				t.Fatalf("workers=%d cand %d: (%v, %v) != serial (%v, %v)", workers, i, m, s, wantMean[i], wantStd[i])
			}
		}
	}
}

// TestGPIncrementalFitBitwiseMatchesCold: refitting a warm GP on a
// training set that extends the previous one must produce exactly the
// model a cold GP produces on the full set — scale, alpha, factor, and
// predictions all bitwise identical. This is what makes the incremental
// optimization invisible to checkpoint replay. Growing from 4 to 300
// rows, in single rows and in uneven jumps, must also reallocate each
// of the GP's buffers (distances plus one factor per length scale)
// O(log n) times, not once per refit.
func TestGPIncrementalFitBitwiseMatchesCold(t *testing.T) {
	const hi = 300
	X, y := trainOn(hi, 5, 31, quadratic)
	cands, _ := trainOn(100, 5, 32, quadratic)

	var sizes []int
	for n := 4; n <= hi; n++ {
		if n <= 40 || n >= 120 {
			sizes = append(sizes, n)
		} else if n == 44 || n == 90 {
			sizes = append(sizes, n) // uneven jumps 40 → 44 → 90 → 120
		}
	}
	warm := NewGP()
	allocs, prev := 0, 0
	for _, n := range sizes {
		if err := warm.Fit(X[:n], y[:n]); err != nil {
			t.Fatalf("warm fit n=%d: %v", n, err)
		}
		st := warm.FitStats()
		if st.Incremental != (prev > 0) || st.PrefixReused != prev {
			t.Fatalf("warm fit n=%d stats = %+v, want PrefixReused=%d", n, st, prev)
		}
		allocs += st.BufferAllocs
		prev = n
	}
	buffers := 1 + len(gpDefaultScales)
	if bound := buffers * 2 * int(math.Ceil(math.Log2(hi))); allocs > bound {
		t.Fatalf("%d buffer allocations growing to %d rows, want <= %d (O(log n) per buffer)", allocs, hi, bound)
	}

	cold := NewGP()
	if err := cold.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSameGP(t, "warm", warm, cold, cands)
}

// assertSameGP requires got to be bitwise the model want is: scale,
// alpha, factor, and predictions at cands, single and batched.
func assertSameGP(t *testing.T, what string, got, want *GP, cands [][]float64) {
	t.Helper()
	if got.LengthScale() != want.LengthScale() {
		t.Fatalf("%s scale %v != cold %v", what, got.LengthScale(), want.LengthScale())
	}
	if len(got.alpha) != len(want.alpha) || got.chol.Rows() != want.chol.Rows() {
		t.Fatalf("%s fitted %d rows, cold %d", what, len(got.alpha), len(want.alpha))
	}
	for i := range got.alpha {
		if got.alpha[i] != want.alpha[i] {
			t.Fatalf("%s alpha[%d]: %v != cold %v", what, i, got.alpha[i], want.alpha[i])
		}
	}
	for i := 0; i < want.chol.Rows(); i++ {
		wr, cr := got.chol.RawRow(i)[:i+1], want.chol.RawRow(i)[:i+1]
		for j := range wr {
			if wr[j] != cr[j] {
				t.Fatalf("%s chol[%d][%d]: %v != cold %v", what, i, j, wr[j], cr[j])
			}
		}
	}
	gotMean := make([]float64, len(cands))
	gotStd := make([]float64, len(cands))
	got.PredictBatch(cands, gotMean, gotStd)
	for i, c := range cands {
		wm, ws := want.Predict(c)
		if gm, gs := got.Predict(c); gm != wm || gs != ws {
			t.Fatalf("%s cand %d: (%v, %v) != cold (%v, %v)", what, i, gm, gs, wm, ws)
		}
		if gotMean[i] != wm || gotStd[i] != ws {
			t.Fatalf("%s cand %d: batch (%v, %v) != cold (%v, %v)", what, i, gotMean[i], gotStd[i], wm, ws)
		}
	}
}

// TestGPSteadyStateRefitReusesBuffers: once n stops growing (BO's
// MaxFitPoints steady state), refits run in the buffers they already
// have. With a serial grid a refit allocates nothing at all.
func TestGPSteadyStateRefitReusesBuffers(t *testing.T) {
	X, y := trainOn(60, 3, 41, quadratic)
	g := NewGP()
	for i := 0; i < 3; i++ {
		if err := g.Fit(X[:50], y[:50]); err != nil {
			t.Fatal(err)
		}
	}
	if st := g.FitStats(); st.BufferAllocs != 0 {
		t.Fatalf("steady-state refit allocated %d buffers, want 0", st.BufferAllocs)
	}
	g.FitWorkers = 1
	// Alternate two prefixes so every refit extends each factor.
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		n := 46 + 4*(i%2)
		i++
		if err := g.Fit(X[:n], y[:n]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state serial refit made %v allocations, want 0", allocs)
	}
}

// TestGPJitterAppliedUniformly: a near-singular design (100 points on a
// line, negligible noise, one very smooth length-scale candidate) makes
// scale 10 fail to factorize at zero jitter while scale 0.1 succeeds.
// The fix under test: instead of comparing scale 0.1 at jitter 0 with
// scale 10 at jitter 1e-6 (different diagonals, incomparable LMLs), the
// whole grid is refit at the larger jitter and the chosen level is
// reported.
func TestGPJitterAppliedUniformly(t *testing.T) {
	X, y := trainOn(100, 1, 51, quadratic)
	g := NewGP()
	g.Noise = 1e-15
	g.LengthScales = []float64{0.1, 10}
	if err := g.Fit(X, y); err != nil {
		t.Fatalf("Fit on near-singular design: %v", err)
	}
	st := g.FitStats()
	if st.CholeskyRetries != 1 {
		t.Fatalf("CholeskyRetries = %d, want 1 (scale 10 must fail at jitter 0): %+v", st.CholeskyRetries, st)
	}
	if st.Jitter != 1e-6 {
		t.Fatalf("Jitter = %v, want 1e-6 (the ladder's next rung)", st.Jitter)
	}
	// The model must still be usable.
	m, s := g.Predict(X[0])
	if math.IsNaN(m) || math.IsNaN(s) {
		t.Fatalf("Predict after jitter fit: (%v, %v)", m, s)
	}

	// A grid that factors cleanly must not escalate.
	clean := NewGP()
	clean.Noise = 1e-15
	clean.LengthScales = []float64{0.1}
	if err := clean.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if st := clean.FitStats(); st.CholeskyRetries != 0 || st.Jitter != 0 {
		t.Fatalf("clean grid escalated jitter: %+v", st)
	}
}

// TestGPFailedFitInvalidates: a fit that cannot factorize at any jitter
// rung must clear the model and not poison later incremental fits.
func TestGPFailedFitInvalidates(t *testing.T) {
	X, y := trainOn(40, 3, 61, quadratic)
	g := NewGP()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// NaN distances make every kernel matrix unfactorizable.
	bad := [][]float64{{math.NaN(), 0, 0}, {0, math.NaN(), 0}, {0, 0, math.NaN()}}
	if err := g.Fit(bad, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error fitting NaN design")
	} else if err != la.ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	// Recover with a clean fit; results must match a cold GP bitwise.
	if err := g.Fit(X, y); err != nil {
		t.Fatalf("refit after failure: %v", err)
	}
	cold := NewGP()
	if err := cold.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		gm, gs := g.Predict(x)
		cm, cs := cold.Predict(x)
		if gm != cm || gs != cs {
			t.Fatalf("point %d after recovery: (%v, %v) != cold (%v, %v)", i, gm, gs, cm, cs)
		}
	}
}

// FuzzGPIncrementalFit drives one warm GP through a sequence of refits
// and requires each to give bitwise the model a cold GP fits on the
// same data. Each op byte picks one step:
//
//	0 grow: append 1–8 rows
//	1 shorter prefix: keep a prefix, then append 1–4 new rows
//	2 shrink: drop rows from the end
//	3 forced jitter: toggle the second length scale between 0.5 and
//	  1e7, whose kernel is constant to within rounding; with the
//	  noise so small that the diagonal is exactly 1, it fails the
//	  jitter ladder's first rung once n exceeds a few rows
//	4 failed fit: append a NaN row, whose NaN distances no rung can
//	  factor
//	5 panicking fit: a negative second length scale panics in the
//	  kernel after the first scale's factor has been overwritten
//
// After every fit the 4-wide solve on the warm factor must also match
// SolveLowerInto on each right-hand side.
func FuzzGPIncrementalFit(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 3, 0, 1, 2, 3, 0, 4, 0, 1})
	f.Add(int64(2), []byte{0, 3, 0, 0, 4, 3, 2, 0, 1, 1})
	f.Add(int64(3), []byte{3, 0, 0, 0, 0, 2, 2, 1, 4, 4, 0, 3, 0, 0})
	f.Add(int64(4), []byte{0, 0, 5, 0, 3, 0, 5, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		row := func() []float64 {
			r := make([]float64, d)
			for j := range r {
				r[j] = rng.Float64()
			}
			return r
		}
		var X [][]float64
		var y []float64
		add := func(k int) {
			for i := 0; i < k; i++ {
				r := row()
				X, y = append(X, r), append(y, quadratic(r))
			}
		}
		cands := make([][]float64, 7) // one 4-wide solve and three single ones
		for i := range cands {
			cands[i] = row()
		}
		scales := []float64{0.2, 0.5}
		warm := &GP{Noise: 1e-300, LengthScales: scales}
		for _, op := range ops {
			switch op % 6 {
			case 0:
				add(1 + rng.Intn(8))
			case 1:
				k := rng.Intn(len(X) + 1)
				X, y = X[:k], y[:k]
				add(1 + rng.Intn(4))
			case 2:
				k := rng.Intn(len(X) + 1)
				X, y = X[:k], y[:k]
			case 3:
				if scales[1] == 0.5 {
					scales[1] = 1e7
				} else {
					scales[1] = 0.5
				}
			case 4:
				if len(X) == 0 {
					continue // a lone NaN row has no NaN distance, so it factors
				}
				nan := make([]float64, d)
				for j := range nan {
					nan[j] = math.NaN()
				}
				bad := append(X[:len(X):len(X)], nan)
				err := warm.Fit(bad, append(y[:len(y):len(y)], 0))
				if !errors.Is(err, la.ErrNotPositiveDefinite) {
					t.Fatalf("fit with a NaN row: err = %v, want ErrNotPositiveDefinite", err)
				}
				continue
			case 5:
				if len(X) < 2 {
					continue // no off-diagonal kernel value to panic on
				}
				keep := scales[1]
				scales[1] = -1
				warm.FitWorkers = 1 // a panic on a grid goroutine would end the process
				func() {
					defer func() { _ = recover() }()
					_ = warm.Fit(X, y)
					t.Fatal("fit with a negative length scale did not panic")
				}()
				warm.FitWorkers, scales[1] = 0, keep
				if warm.chol != nil {
					t.Fatal("a panicking fit left a model behind")
				}
				continue
			}
			if len(X) == 0 {
				continue
			}
			if err := warm.Fit(X, y); err != nil {
				t.Fatalf("warm fit n=%d: %v", len(X), err)
			}
			cold := &GP{Noise: warm.Noise, LengthScales: append([]float64(nil), scales...)}
			if err := cold.Fit(X, y); err != nil {
				t.Fatalf("cold fit n=%d: %v", len(X), err)
			}
			assertSameGP(t, fmt.Sprintf("warm n=%d", len(X)), warm, cold, cands)

			n := len(X)
			var b, x [4][]float64
			for c := range b {
				b[c], x[c] = make([]float64, n), make([]float64, n)
				for i := range b[c] {
					b[c][i] = rng.NormFloat64()
				}
			}
			if err := la.SolveLower4Into(warm.chol, b, x); err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			for c := range b {
				if err := la.SolveLowerInto(warm.chol, b[c], want); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if x[c][i] != want[i] {
						t.Fatalf("n=%d rhs %d row %d: 4-wide %v != single %v", n, c, i, x[c][i], want[i])
					}
				}
			}
		}
	})
}
