// Package nnls solves the non-negative least-squares problem at the heart of
// VN2's inference step (Problem 3 in the paper):
//
//	argmin_w ‖s − wΨ‖²  subject to w ≥ 0
//
// where s is a 1×m node-state vector, Ψ is the r×m representative matrix and
// w is the 1×r correlation-strength vector. The default solver is the exact
// Lawson–Hanson active-set method in the Gram form of Bro & de Jong's FNNLS
// (J. Chemometrics 1997); the multiplicative-update solver, the natural
// companion of the NMF training rule, is kept as the paper-faithful
// ablation. Both are deterministic.
package nnls

import (
	"errors"
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/mat"
)

// Solver selects the optimization algorithm.
type Solver int

const (
	// ActiveSet is the Lawson–Hanson active-set method on the Gram system
	// G = ΨΨᵀ, b = Ψsᵀ (FNNLS). It terminates at the exact optimum: the
	// returned w satisfies the KKT conditions to rounding error unless a
	// row of Ψ lies within ~1e-6 (relative) of the span of others, where
	// that row is skipped.
	ActiveSet Solver = iota + 1
	// Multiplicative uses the Lee–Seung style update
	// w_j ← w_j (sΨᵀ)_j / (wΨΨᵀ)_j, which preserves non-negativity by
	// construction but converges slowly and never revives a zero weight.
	Multiplicative
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	switch s {
	case ActiveSet:
		return "active-set"
	case Multiplicative:
		return "multiplicative"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ErrShape reports a state vector whose length does not match Ψ's columns.
var ErrShape = errors.New("nnls: state length does not match basis columns")

const epsDiv = 1e-12

// Config controls a solve.
type Config struct {
	// Solver selects the algorithm; defaults to ActiveSet.
	Solver Solver
	// MaxIter bounds iterations; defaults to 500. For ActiveSet it bounds
	// the outer steps, which an exact solve never reaches.
	MaxIter int
	// Tolerance stops Multiplicative when the objective improvement falls
	// below it; defaults to 1e-9. ActiveSet needs none.
	Tolerance float64
}

func (c Config) withDefaults() Config {
	if c.Solver == 0 {
		c.Solver = ActiveSet
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-9
	}
	return c
}

// Result holds the solution and solve diagnostics.
type Result struct {
	// W is the non-negative weight vector, length r.
	W []float64
	// Residual is ‖s − wΨ‖₂ at the solution.
	Residual float64
	// Iterations performed: multiplicative sweeps for Multiplicative; for
	// ActiveSet, outer steps, each of which tries one column for the
	// passive set.
	Iterations int
}

// Solve computes argmin_w ‖s − wΨ‖² with w ≥ 0.
func Solve(s []float64, psi *mat.Dense, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r, m := psi.Dims()
	if len(s) != m {
		return nil, fmt.Errorf("%w: state %d, basis %dx%d", ErrShape, len(s), r, m)
	}
	g := gramOf(psi)
	sc := newSolveScratch(r, m)
	res := &Result{W: make([]float64, r)}
	res.Residual, res.Iterations = solveWith(res.W, s, psi, g, sc, cfg)
	return res, nil
}

// gramOf returns the Gram matrix G = ΨΨᵀ (r×r). It depends only on Ψ, so
// batch solvers compute it once and share it across every row — the single
// largest saving of the batch path (the per-row r²·m product dominated each
// solve).
func gramOf(psi *mat.Dense) *mat.Dense {
	g := mat.MustNew(psi.Rows(), psi.Rows())
	mat.MulABTInto(g, psi, psi)
	return g
}

// solveScratch is the reusable working set of one solver goroutine: the
// linear term b = Ψsᵀ, the residual's difference vector, and the active-set
// state. Batch solves allocate one per worker instead of fresh slices per
// row.
type solveScratch struct {
	b    []float64 // length r: Ψsᵀ for the current row
	diff []float64 // length m: s − wΨ for the residual
	as   activeSet
}

func newSolveScratch(r, m int) *solveScratch {
	return &solveScratch{
		b:    make([]float64, r),
		diff: make([]float64, m),
		as:   newActiveSet(r),
	}
}

// fillB computes b = Ψsᵀ into the scratch.
func (sc *solveScratch) fillB(s []float64, psi *mat.Dense) {
	for i := range sc.b {
		row := psi.RawRow(i)
		var sum float64
		for j, pv := range row {
			sum += pv * s[j]
		}
		sc.b[i] = sum
	}
}

// residualWith computes ‖s − wΨ‖₂ through the scratch difference vector:
// one contiguous pass per basis row instead of the strided per-element
// column walk. The accumulation order is fixed (rows i ascending into diff,
// then j ascending for the norm), so every solve path produces identical
// bits.
func residualWith(diff, s, w []float64, psi *mat.Dense) float64 {
	copy(diff, s)
	for i, wv := range w {
		row := psi.RawRow(i)
		for j, pv := range row {
			diff[j] -= wv * pv
		}
	}
	var sum float64
	for _, d := range diff {
		sum += d * d
	}
	return math.Sqrt(sum)
}

// solveWith runs the configured solver, writing the solution into w (length
// r, fully overwritten). g must be ΨΨᵀ; sc is caller-owned scratch. It
// returns the final residual and the iteration count. cfg must already have
// defaults applied.
func solveWith(w, s []float64, psi, g *mat.Dense, sc *solveScratch, cfg Config) (float64, int) {
	sc.fillB(s, psi)
	switch cfg.Solver {
	case Multiplicative:
		return solveMUInto(w, s, psi, g, sc, cfg)
	default:
		iters := sc.as.solve(w, g, sc.b, cfg.MaxIter)
		return residualWith(sc.diff, s, w, psi), iters
	}
}

func solveMUInto(w, s []float64, psi, g *mat.Dense, sc *solveScratch, cfg Config) (float64, int) {
	r := len(w)
	for i := range w {
		w[i] = 1.0 / float64(r) // uniform positive start
	}
	iters := 0
	prev := math.Inf(1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for i := 0; i < r; i++ {
			num := sc.b[i]
			if num < 0 {
				// A negative correlation with the basis cannot be expressed
				// with w ≥ 0; the multiplicative rule drives w_i to zero.
				num = 0
			}
			var den float64
			gRow := g.RawRow(i)
			for k := 0; k < r; k++ {
				den += gRow[k] * w[k]
			}
			w[i] *= num / (den + epsDiv)
		}
		iters = iter + 1
		obj := residualWith(sc.diff, s, w, psi)
		if !math.IsInf(prev, 1) && prev-obj <= cfg.Tolerance*math.Max(prev, 1) {
			break
		}
		prev = obj
	}
	return residualWith(sc.diff, s, w, psi), iters
}

// SolveBatch solves one NNLS problem per row of states, returning an
// n×r weight matrix and per-row residuals. states is n×m, psi is r×m.
// It is the single-worker case of SolveBatchParallel.
func SolveBatch(states, psi *mat.Dense, cfg Config) (*mat.Dense, []float64, error) {
	return SolveBatchParallel(states, psi, cfg, 1)
}
