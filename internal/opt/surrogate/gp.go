package surrogate

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"simcal/internal/la"
	"simcal/internal/stats"
)

// gpJitterLadder is the sequence of shared diagonal jitters Fit tries.
// Every length-scale candidate in a selection round uses the SAME
// jitter, so their log marginal likelihoods are comparable; the ladder
// is only climbed when some candidate fails to factorize at the
// current level.
var gpJitterLadder = [...]float64{0, 1e-6}

// gpDefaultScales are the length-scale candidates used when
// GP.LengthScales is empty. Read-only.
var gpDefaultScales = []float64{0.1, 0.2, 0.5, 1.0}

// GP is a Gaussian-process regressor with a Matérn-5/2 kernel over the
// unit cube (BO-GP). The length scale is selected from a small candidate
// set by log marginal likelihood at Fit time; targets are standardized
// internally. This mirrors scikit-optimize's default GP surrogate at the
// fidelity the calibration experiments need.
//
// Fit is incremental: when the new training set extends the previous one
// by appended rows (the common BO refit shape), the cached distance
// matrix and each scale's Cholesky factor are extended in place instead
// of recomputed. Each lives in one buffer that is re-strided in place
// as n changes and grows geometrically, so refits at a fixed n
// allocate nothing and a growing sequence reallocates O(log n) times.
// The length-scale grid is evaluated concurrently across FitWorkers
// goroutines. Both
// optimizations are bitwise transparent: the selected scale, alpha,
// factor, and all subsequent predictions are identical to a serial
// from-scratch fit (la.CholeskyExtendInPlace performs the exact per-row
// operation sequence of a full factorization, and the grid winner is
// chosen by ascending candidate index regardless of which goroutine
// finished first).
type GP struct {
	// LengthScales are the candidate kernel length scales; the one with
	// the highest log marginal likelihood wins (lowest index on ties).
	// Defaults to a small logarithmic grid.
	LengthScales []float64
	// Noise is the observation-noise variance added to the kernel
	// diagonal (relative to unit target variance). Default 1e-4.
	Noise float64
	// FitWorkers bounds the goroutines used to evaluate the length-scale
	// grid (0 = GOMAXPROCS, 1 = serial). The fitted model is identical
	// either way.
	FitWorkers int
	// PredictWorkers bounds the goroutines used by PredictBatch
	// (0 = GOMAXPROCS, 1 = serial). The output is identical either way.
	PredictWorkers int

	x            [][]float64
	alpha        []float64
	chol         *la.Matrix
	scale        float64 // chosen length scale
	yMean, yStd  float64
	signalStdDev float64

	// Incremental-fit caches. prevX snapshots the row slices of the last
	// fitted X so a later Fit can detect a shared prefix; dists holds the
	// lower triangle of prevX's pairwise distances. scaleState keeps one
	// factored kernel per length-scale candidate so an appended-rows
	// refit only factors the new rows.
	prevX      [][]float64
	dists      la.Matrix
	scaleState []gpScaleState
	yn         []float64
	fitStats   FitStats
}

// gpScaleState caches per-length-scale fit state across refits. Its
// one factor buffer is overwritten by the fit that refills it, so
// valid records how many leading rows still hold a factor of the
// kernel under (scaleVal, noise, jitter): a failed factorization or
// jitter rung leaves exactly the rows it did not touch.
type gpScaleState struct {
	l        la.Matrix
	alpha    []float64
	valid    int
	scaleVal float64
	noise    float64
	jitter   float64
	lml      float64
	ok       bool
	grew     bool // this rung reallocated l
}

// NewGP returns a GP regressor with default hyperparameter candidates.
func NewGP() *GP { return &GP{} }

// Name implements Regressor.
func (g *GP) Name() string { return "GP" }

// Reseed implements Reseeder. The GP is deterministic and keeps no RNG,
// so this is a no-op; it exists so BayesOpt can reuse one GP across
// refits (keeping the incremental caches warm) through the same
// interface it uses for the stochastic regressors.
func (g *GP) Reseed(int64) {}

// FitStats implements FitStatsProvider.
func (g *GP) FitStats() FitStats { return g.fitStats }

// matern52 evaluates the Matérn-5/2 kernel for distance r and length
// scale l, with unit signal variance.
func matern52(r, l float64) float64 {
	if l <= 0 {
		panic("surrogate: non-positive GP length scale")
	}
	s := math.Sqrt(5) * r / l
	return (1 + s + s*s/3) * math.Exp(-s)
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// commonPrefix reports how many leading rows of X are unchanged from
// the previous fit. Rows are compared by pointer first (BO keeps stable
// parameter-vector slices in its history) with a value-compare
// fallback.
func (g *GP) commonPrefix(X [][]float64) int {
	max := len(g.prevX)
	if len(X) < max {
		max = len(X)
	}
	for i := 0; i < max; i++ {
		a, b := g.prevX[i], X[i]
		if len(a) != len(b) {
			return i
		}
		if len(a) > 0 && &a[0] == &b[0] {
			continue
		}
		for j := range a {
			if a[j] != b[j] {
				return i
			}
		}
	}
	return max
}

// extendDists fills the lower triangle of the n×n distance matrix for
// X, keeping the prefix rows cached from the previous fit and computing
// only the rows of new points. Only the lower triangle is ever read.
func (g *GP) extendDists(X [][]float64, prefix int) *la.Matrix {
	n := len(X)
	d := &g.dists
	if d.ResizeLower(n, prefix) {
		g.fitStats.BufferAllocs++
	}
	for i := prefix; i < n; i++ {
		ri := d.RawRow(i)
		for j := 0; j < i; j++ {
			ri[j] = dist(X[i], X[j])
		}
		ri[i] = 0
	}
	return d
}

// invalidate clears the fitted model so that neither Predict nor a
// later incremental Fit can use buffers a fit is overwriting.
func (g *GP) invalidate() {
	g.chol = nil
	g.alpha = nil
	g.x = nil
	g.prevX = g.prevX[:0]
}

// Fit implements Regressor.
func (g *GP) Fit(X [][]float64, y []float64) error {
	if err := validateXY(X, y); err != nil {
		return err
	}
	n := len(X)
	g.fitStats = FitStats{}
	yMean := stats.Mean(y)
	yStd := stats.StdDev(y)
	if yStd <= 0 {
		yStd = 1
	}
	if cap(g.yn) < n {
		g.yn = make([]float64, n)
	}
	yn := g.yn[:n]
	for i, v := range y {
		yn[i] = (v - yMean) / yStd
	}
	noise := g.Noise
	if noise <= 0 {
		noise = 1e-4
	}
	scales := g.LengthScales
	if len(scales) == 0 {
		scales = gpDefaultScales
	}

	prefix := g.commonPrefix(X)
	// From here on the previous model's buffers are overwritten, so
	// until this fit succeeds there is none: a fit that fails, or
	// panics, leaves the next one to start cold.
	g.invalidate()
	dists := g.extendDists(X, prefix)
	if len(g.scaleState) != len(scales) {
		g.scaleState = make([]gpScaleState, len(scales))
	}

	// Climb the jitter ladder. Within one rung every scale shares the
	// same diagonal jitter, so the LML comparison across scales is
	// apples to apples; if any scale fails to factorize the whole grid
	// is redone at the next rung, rather than silently comparing models
	// with different diagonals.
	fitted := false
	var jitter float64
	for rung, jit := range gpJitterLadder {
		if rung > 0 {
			g.fitStats.CholeskyRetries++
		}
		g.fitScales(scales, dists, yn, noise, jit, prefix, n)
		allOK := true
		anyOK := false
		for i := range g.scaleState {
			if g.scaleState[i].ok {
				anyOK = true
			} else {
				allOK = false
			}
		}
		if allOK || (anyOK && rung == len(gpJitterLadder)-1) {
			fitted, jitter = true, jit
			break
		}
	}
	if !fitted {
		return la.ErrNotPositiveDefinite
	}

	// Deterministic winner: ascending index with strictly-greater LML,
	// so ties go to the lowest index no matter which goroutine ran it.
	best := -1
	bestLML := math.Inf(-1)
	for i := range g.scaleState {
		st := &g.scaleState[i]
		if st.ok && st.lml > bestLML {
			best, bestLML = i, st.lml
		}
	}
	if best < 0 {
		return la.ErrNotPositiveDefinite
	}

	g.x = X
	g.prevX = append(g.prevX[:0], X...)
	g.yMean, g.yStd = yMean, yStd
	g.chol = &g.scaleState[best].l
	g.alpha = g.scaleState[best].alpha
	g.scale = scales[best]
	g.signalStdDev = 1
	g.fitStats.Points = n
	g.fitStats.PrefixReused = prefix
	g.fitStats.Incremental = prefix > 0
	g.fitStats.Jitter = jitter
	return nil
}

// fitScales evaluates every length-scale candidate at one jitter level,
// writing results into g.scaleState by index. Candidates are claimed
// from an atomic counter across up to FitWorkers goroutines; each
// candidate's computation is independent and its result slot is
// index-addressed, so the outcome is identical to a serial sweep.
func (g *GP) fitScales(scales []float64, dists *la.Matrix, yn []float64, noise, jit float64, prefix, n int) {
	workers := g.FitWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scales) {
		workers = len(scales)
	}
	if workers <= 1 {
		for i, l := range scales {
			g.fitOneScale(i, l, dists, yn, noise, jit, prefix, n)
		}
	} else {
		var next int32 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt32(&next, 1))
					if i >= len(scales) {
						return
					}
					g.fitOneScale(i, scales[i], dists, yn, noise, jit, prefix, n)
				}
			}()
		}
		wg.Wait()
	}
	for i := range g.scaleState {
		if g.scaleState[i].grew {
			g.fitStats.BufferAllocs++
		}
	}
}

// fitOneScale builds (or extends) the kernel factor for one length
// scale and computes its alpha and log marginal likelihood. When the
// factor buffer's valid rows cover a prefix of the new rows under the
// same kernel diagonal, only rows [start, n) are filled and factored;
// the resulting factor is bitwise identical to a from-scratch one (see
// la.CholeskyExtendInPlace).
func (g *GP) fitOneScale(idx int, scale float64, dists *la.Matrix, yn []float64, noise, jit float64, prefix, n int) {
	st := &g.scaleState[idx]
	st.ok = false

	start := 0
	if st.scaleVal == scale && st.noise == noise && st.jitter == jit {
		start = min(st.valid, prefix)
	}
	l := &st.l
	st.grew = l.ResizeLower(n, start)
	// Rows from start on are about to be overwritten; only the kept
	// rows stay valid until the factorization succeeds.
	st.valid, st.scaleVal, st.noise, st.jitter = start, scale, noise, jit
	diag := 1 + noise + jit
	for i := start; i < n; i++ {
		ri := l.RawRow(i)
		di := dists.RawRow(i)
		for j := 0; j < i; j++ {
			ri[j] = matern52(di[j], scale)
		}
		ri[i] = diag
	}
	if err := la.CholeskyExtendInPlace(l, start); err != nil {
		return
	}
	st.valid = n

	if cap(st.alpha) < n {
		st.alpha = make([]float64, n, n+n/4)
	}
	st.alpha = st.alpha[:n]
	if err := la.CholSolveInto(l, yn, st.alpha); err != nil {
		return
	}

	lml := -0.5 * la.Dot(yn, st.alpha)
	for i := 0; i < n; i++ {
		lml -= math.Log(l.At(i, i))
	}
	lml -= float64(n) / 2 * math.Log(2*math.Pi)
	st.lml = lml
	st.ok = true
}

// Predict implements Regressor.
func (g *GP) Predict(x []float64) (mean, std float64) {
	if g.chol == nil {
		panic("surrogate: Predict before Fit")
	}
	n := len(g.x)
	kstar := make([]float64, n)
	for i := 0; i < n; i++ {
		kstar[i] = matern52(dist(x, g.x[i]), g.scale)
	}
	mn := la.Dot(kstar, g.alpha)
	v, err := la.SolveLower(g.chol, kstar)
	variance := 1.0
	if err == nil {
		variance = 1 - la.Dot(v, v)
	}
	if variance < 0 {
		variance = 0
	}
	mean = mn*g.yStd + g.yMean
	std = math.Sqrt(variance) * g.yStd
	return mean, std
}

// gpBatchScratch is the per-worker scratch for PredictBatch: kernel
// vectors and forward-substitution outputs for four candidates.
type gpBatchScratch struct {
	kstar [4][]float64
	v     [4][]float64
}

// PredictBatch implements Regressor. Candidates are scored in
// predictChunk-sized chunks across up to PredictWorkers goroutines,
// with per-worker scratch replacing Predict's per-call allocations.
// Within a chunk, candidates go four at a time through one
// la.SolveLower4Into pass over the factor, and a chunk's last one to
// three through la.SolveLowerInto; both give each candidate
// SolveLower's bits. The kernel evaluations and the la.Dot calls for
// mean and variance are Predict's, one candidate at a time, and all
// writes are index-addressed, so the output is bitwise identical to
// calling Predict once per candidate, for any worker count.
func (g *GP) PredictBatch(X [][]float64, mean, std []float64) {
	if g.chol == nil {
		panic("surrogate: PredictBatch before Fit")
	}
	checkBatchArgs(X, mean, std)
	n := len(g.x)
	batchLoop(len(X), g.PredictWorkers,
		func() *gpBatchScratch {
			s := &gpBatchScratch{}
			for k := range s.kstar {
				s.kstar[k], s.v[k] = make([]float64, n), make([]float64, n)
			}
			return s
		},
		func(lo, hi int, s *gpBatchScratch) {
			for c := lo; c < hi; {
				w := min(4, hi-c)
				for k := 0; k < w; k++ {
					x, kstar := X[c+k], s.kstar[k]
					for i := 0; i < n; i++ {
						kstar[i] = matern52(dist(x, g.x[i]), g.scale)
					}
				}
				var err error
				if w == 4 {
					err = la.SolveLower4Into(g.chol, s.kstar, s.v)
				} else {
					for k := 0; k < w && err == nil; k++ {
						err = la.SolveLowerInto(g.chol, s.kstar[k], s.v[k])
					}
				}
				for k := 0; k < w; k++ {
					mn := la.Dot(s.kstar[k], g.alpha)
					variance := 1.0
					if err == nil {
						variance = 1 - la.Dot(s.v[k], s.v[k])
					}
					if variance < 0 {
						variance = 0
					}
					mean[c+k] = mn*g.yStd + g.yMean
					std[c+k] = math.Sqrt(variance) * g.yStd
				}
				c += w
			}
		})
}

// LengthScale returns the length scale selected during Fit.
func (g *GP) LengthScale() float64 { return g.scale }
