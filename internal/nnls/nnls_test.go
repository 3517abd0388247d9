package nnls_test

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nnls"
	"github.com/wsn-tools/vn2/internal/nnls/nnlstest"
)

func randomBasis(t *testing.T, r, m int, seed int64) *mat.Dense {
	t.Helper()
	psi, err := mat.RandomPositive(r, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("random basis: %v", err)
	}
	return psi
}

// mix produces s = wΨ for a known non-negative w.
func mix(w []float64, psi *mat.Dense) []float64 {
	r, m := psi.Dims()
	s := make([]float64, m)
	for j := 0; j < m; j++ {
		for i := 0; i < r; i++ {
			s[j] += w[i] * psi.At(i, j)
		}
	}
	return s
}

// solveExact runs the default solver and certifies its answer.
func solveExact(t *testing.T, s []float64, psi *mat.Dense) *nnls.Result {
	t.Helper()
	res, err := nnls.Solve(s, psi, nnls.Config{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	nnlstest.AssertKKT(t, psi, s, res.W)
	return res
}

func TestSolveRecoversExactMixMU(t *testing.T) {
	testRecovery(t, nnls.Multiplicative, 1e-3)
}

func TestSolveRecoversExactMixActiveSet(t *testing.T) {
	testRecovery(t, nnls.ActiveSet, 1e-12)
}

func testRecovery(t *testing.T, solver nnls.Solver, tol float64) {
	t.Helper()
	psi := randomBasis(t, 4, 20, 1)
	want := []float64{2, 0, 0.5, 0}
	s := mix(want, psi)
	res, err := nnls.Solve(s, psi, nnls.Config{Solver: solver, MaxIter: 5000, Tolerance: 1e-14})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Residual > tol*norm(s) {
		t.Errorf("residual = %v, want < %v of ‖s‖", res.Residual, tol)
	}
	for i := range res.W {
		if res.W[i] < 0 {
			t.Errorf("W[%d] = %v < 0", i, res.W[i])
		}
	}
	if solver == nnls.ActiveSet {
		nnlstest.AssertKKT(t, psi, s, res.W)
	}
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestSolveZeroState(t *testing.T) {
	psi := randomBasis(t, 3, 10, 2)
	s := make([]float64, 10)
	for _, solver := range []nnls.Solver{nnls.ActiveSet, nnls.Multiplicative} {
		res, err := nnls.Solve(s, psi, nnls.Config{Solver: solver})
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if res.Residual > 1e-6 {
			t.Errorf("%v: residual on zero state = %v", solver, res.Residual)
		}
		for i, w := range res.W {
			if w > 1e-6 {
				t.Errorf("%v: W[%d] = %v, want ~0", solver, i, w)
			}
		}
	}
	// The exact solver takes no step at all: w = 0 is optimal and certified.
	res := solveExact(t, s, psi)
	if res.Iterations != 0 || res.Residual != 0 {
		t.Errorf("active set on s = 0: %d iterations, residual %v; want 0, 0", res.Iterations, res.Residual)
	}
	for i, w := range res.W {
		if w != 0 {
			t.Errorf("active set on s = 0: W[%d] = %v, want exactly 0", i, w)
		}
	}
}

func TestSolveShapeMismatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 3)
	if _, err := nnls.Solve(make([]float64, 5), psi, nnls.Config{}); !errors.Is(err, nnls.ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

func TestSolveNonNegativeOnAdversarialState(t *testing.T) {
	// A state with negative entries cannot be represented exactly by a
	// non-negative combination of a positive basis; the solver must still
	// return w ≥ 0.
	psi := randomBasis(t, 3, 8, 4)
	s := []float64{-5, -3, -1, 0, 1, -2, -4, -6}
	for _, solver := range []nnls.Solver{nnls.ActiveSet, nnls.Multiplicative} {
		res, err := nnls.Solve(s, psi, nnls.Config{Solver: solver, MaxIter: 500})
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		for i, w := range res.W {
			if w < 0 {
				t.Errorf("%v: W[%d] = %v < 0", solver, i, w)
			}
		}
	}
	solveExact(t, s, psi)
}

// TestSolversAgree: the multiplicative ablation, run long, converges toward
// the active-set optimum and never beats it.
func TestSolversAgree(t *testing.T) {
	psi := randomBasis(t, 5, 25, 5)
	want := []float64{0, 1.5, 0, 3, 0.25}
	s := mix(want, psi)
	exact := solveExact(t, s, psi)
	dist := func(iters int) (float64, *nnls.Result) {
		mu, err := nnls.Solve(s, psi, nnls.Config{Solver: nnls.Multiplicative, MaxIter: iters, Tolerance: 1e-15})
		if err != nil {
			t.Fatalf("MU: %v", err)
		}
		var d float64
		for i := range mu.W {
			d = math.Max(d, math.Abs(mu.W[i]-exact.W[i]))
		}
		return d, mu
	}
	short, _ := dist(200)
	long, mu := dist(20000)
	if long >= short {
		t.Errorf("multiplicative does not approach the optimum: max|Δw| %v after 200 sweeps, %v after 20000", short, long)
	}
	if mu.Residual < exact.Residual*(1-1e-12) {
		t.Errorf("multiplicative residual %v beats the exact optimum %v", mu.Residual, exact.Residual)
	}
	for i := range mu.W {
		if math.Abs(mu.W[i]-exact.W[i]) > 0.05*(1+math.Abs(want[i])) {
			t.Errorf("solvers disagree at %d: MU=%v active-set=%v want=%v", i, mu.W[i], exact.W[i], want[i])
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	psi := randomBasis(t, 4, 12, 6)
	s := mix([]float64{1, 2, 0, 0.5}, psi)
	a, _ := nnls.Solve(s, psi, nnls.Config{})
	b, _ := nnls.Solve(s, psi, nnls.Config{})
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("Solve is not deterministic")
		}
	}
}

func TestSolveBatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 7)
	states := mat.MustNew(4, 10)
	wants := [][]float64{
		{1, 0, 0},
		{0, 2, 0},
		{0, 0, 3},
		{1, 1, 1},
	}
	for i, w := range wants {
		states.SetRow(i, mix(w, psi))
	}
	weights, residuals, err := nnls.SolveBatch(states, psi, nnls.Config{MaxIter: 3000, Tolerance: 1e-14})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if weights.Rows() != 4 || weights.Cols() != 3 {
		t.Fatalf("weights shape %dx%d, want 4x3", weights.Rows(), weights.Cols())
	}
	for i, want := range wants {
		if residuals[i] > 1e-2 {
			t.Errorf("row %d residual = %v", i, residuals[i])
		}
		for j, wv := range want {
			if math.Abs(weights.At(i, j)-wv) > 0.05*(1+wv) {
				t.Errorf("row %d: W[%d] = %v, want %v", i, j, weights.At(i, j), wv)
			}
		}
		nnlstest.AssertKKT(t, psi, states.RawRow(i), weights.RawRow(i))
	}
}

func TestSolveBatchShapeMismatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 8)
	if _, _, err := nnls.SolveBatch(mat.MustNew(2, 7), psi, nnls.Config{}); !errors.Is(err, nnls.ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

func TestSolverString(t *testing.T) {
	if nnls.ActiveSet.String() != "active-set" {
		t.Error("ActiveSet.String mismatch")
	}
	if nnls.Multiplicative.String() != "multiplicative" {
		t.Error("Multiplicative.String mismatch")
	}
	if nnls.Solver(9).String() != "Solver(9)" {
		t.Error("unknown Solver String mismatch")
	}
}

// Property: for any positive basis and any non-negative mixing weights, both
// solvers return non-negative w with residual below the trivial w=0
// residual, and the active-set answer is certified optimal.
func TestPropertySolveImprovesOverZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(4)
		m := r + 2 + rng.Intn(10)
		psi, err := mat.RandomPositive(r, m, rng)
		if err != nil {
			return false
		}
		w := make([]float64, r)
		for i := range w {
			w[i] = rng.Float64() * 3
		}
		s := mix(w, psi)
		zeroResidual := norm(s)
		if zeroResidual == 0 {
			return true
		}
		for _, solver := range []nnls.Solver{nnls.ActiveSet, nnls.Multiplicative} {
			res, err := nnls.Solve(s, psi, nnls.Config{Solver: solver, MaxIter: 200})
			if err != nil {
				return false
			}
			for _, wi := range res.W {
				if wi < 0 || math.IsNaN(wi) {
					return false
				}
			}
			if res.Residual > zeroResidual {
				return false
			}
			if solver == nnls.ActiveSet && nnlstest.Violation(psi, s, res.W) > nnlstest.Tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveBatchParallelMatchesSequential(t *testing.T) {
	psi := randomBasis(t, 4, 15, 9)
	rng := rand.New(rand.NewSource(10))
	states := mat.MustNew(40, 15)
	for i := 0; i < 40; i++ {
		w := make([]float64, 4)
		for j := range w {
			w[j] = rng.Float64() * 2
		}
		states.SetRow(i, mix(w, psi))
	}
	seqW, seqR, err := nnls.SolveBatch(states, psi, nnls.Config{})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for _, workers := range []int{0, 1, 2, 3, 4, runtime.GOMAXPROCS(0), 64} {
		parW, parR, err := nnls.SolveBatchParallel(states, psi, nnls.Config{}, workers)
		if err != nil {
			t.Fatalf("SolveBatchParallel(%d): %v", workers, err)
		}
		if !mat.Equal(seqW, parW, 0) {
			t.Fatalf("workers=%d: weights differ from sequential", workers)
		}
		for i := range seqR {
			if seqR[i] != parR[i] {
				t.Fatalf("workers=%d: residual %d differs", workers, i)
			}
		}
	}
}

func TestSolveBatchParallelShapeMismatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 11)
	if _, _, err := nnls.SolveBatchParallel(mat.MustNew(5, 7), psi, nnls.Config{}, 2); !errors.Is(err, nnls.ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

// TestActiveSetRankOneBadlyScaled: identical basis rows with entries near
// 4e15 give a rank-1 Gram with entries near 1e32. Every tolerance must be
// scale-free: a positive state has a non-zero optimum, the least-squares
// projection onto the single direction, and the dependent columns must not
// stall the solve.
func TestActiveSetRankOneBadlyScaled(t *testing.T) {
	const r, m = 3, 10
	psi := mat.MustNew(r, m)
	row := make([]float64, m)
	s := make([]float64, m)
	var rs, rr float64
	for k := range row {
		row[k] = 4e15 * (1 + float64(k)/m)
		s[k] = 0.2 + 0.05*float64(k%3)
		rs += row[k] * s[k]
		rr += row[k] * row[k]
	}
	for i := 0; i < r; i++ {
		psi.SetRow(i, row)
	}
	res := solveExact(t, s, psi)
	var sum float64
	for _, w := range res.W {
		sum += w
	}
	if sum == 0 {
		t.Fatal("w = 0 for a positive state")
	}
	if want := rs / rr; math.Abs(sum-want) > 1e-9*want {
		t.Errorf("Σw = %v, want the projection coefficient %v", sum, want)
	}
	if res.Iterations >= r+2 {
		t.Errorf("%d outer steps on a rank-1 problem of rank %d", res.Iterations, r)
	}
}

// TestActiveSetDependentRows: a basis row that is exactly twice another
// makes G singular. The dependent column's Cholesky pivot collapses and it
// is skipped; the fit is still exact and certified.
func TestActiveSetDependentRows(t *testing.T) {
	psi := randomBasis(t, 4, 12, 12)
	for k := 0; k < 12; k++ {
		psi.Set(2, k, 2*psi.At(0, k))
	}
	s := mix([]float64{1, 0.5, 1, 0.25}, psi)
	res := solveExact(t, s, psi)
	if res.Residual > 1e-12*norm(s) {
		t.Errorf("residual = %v, want an exact fit of ‖s‖ = %v", res.Residual, norm(s))
	}
	if res.Iterations >= 500 {
		t.Errorf("solve hit the iteration cap")
	}
}

// TestKKTViolation: the certificate scores an exact optimum at rounding
// level and flags the ways a point can miss it.
func TestKKTViolation(t *testing.T) {
	psi := randomBasis(t, 5, 20, 13)
	s := mix([]float64{0, 1.5, 0, 3, 0.25}, psi)
	exact := solveExact(t, s, psi)
	if v := nnlstest.Violation(psi, s, make([]float64, 5)); v != 1 {
		t.Errorf("w = 0 under a positive state: violation %v, want 1 (max dual / max|b|)", v)
	}
	neg := append([]float64(nil), exact.W...)
	neg[0] = -1e-3
	if v := nnlstest.Violation(psi, s, neg); v <= nnlstest.Tol {
		t.Errorf("negative weight passed the certificate: violation %v", v)
	}
	mu, err := nnls.Solve(s, psi, nnls.Config{Solver: nnls.Multiplicative, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v := nnlstest.Violation(psi, s, mu.W); v <= 1e-6 {
		t.Errorf("5 multiplicative sweeps certified as optimal: violation %v", v)
	}
}

// TestActiveSetNearCollinearColumnSkipped: row 2 is row 0 plus a 1e-8
// perturbation u chosen so that row 2 enters first (u·s > 0) and row 0
// then has a positive dual (u·r < 0 for the residual r). Row 0's Cholesky
// pivot collapses against row 2: the solver must skip it for that step
// rather than retry it up to the iteration cap. The answer it keeps is
// optimal to the perturbation's scale, not to rounding.
func TestActiveSetNearCollinearColumnSkipped(t *testing.T) {
	base := randomBasis(t, 2, 8, 14)
	s := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	fit := solveExact(t, s, base)
	r := make([]float64, len(s))
	for k := range s {
		r[k] = s[k] - fit.W[0]*base.At(0, k) - fit.W[1]*base.At(1, k)
	}
	psi := mat.MustNew(3, 8)
	psi.SetRow(0, base.Row(0))
	psi.SetRow(1, base.Row(1))
	for k := range s {
		psi.Set(2, k, base.At(0, k)+1e-8*(s[k]-1.5*r[k]))
	}
	res, err := nnls.Solve(s, psi, nnls.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 4 {
		t.Errorf("%d outer steps for 3 columns: the collapsed column was retried", res.Iterations)
	}
	if res.W[2] == 0 {
		t.Errorf("w = %v: row 2 should have entered first", res.W)
	}
	if res.Residual > fit.Residual*(1+1e-6) {
		t.Errorf("residual %v, want within 1e-6 of the rows-0,1 optimum %v", res.Residual, fit.Residual)
	}
	if v := nnlstest.Violation(psi, s, res.W); v > 1e-6 {
		t.Errorf("relative KKT violation %v, want at most the perturbation's scale", v)
	}
}
