package nnls

import (
	"math"

	"github.com/wsn-tools/vn2/internal/mat"
)

// Column states of the active-set solver.
const (
	colActive  uint8 = iota // w_j = 0 and free to enter the passive set
	colPassive              // w_j is solved on the Gram subsystem
	colSkipped              // collinear with the passive set; barred until it grows
)

// eps is the float64 unit roundoff.
const eps = 0x1p-52

// collapseTol is the Cholesky pivot, relative to G_jj, at or below which
// column j counts as lying in the span of the passive columns: Ψ_j's part
// outside that span is under 1e-6 of its norm, where pivot rounding for
// r ≤ 25 sits near 1e-14.
const collapseTol = 1e-12

// activeSet is the working set of the FNNLS solver for rank r: the column
// states, the passive set in insertion order, the Cholesky factor of G
// restricted to it and the subsystem solution z. A batch solve allocates
// one per chunk and reuses it for every row.
type activeSet struct {
	state []uint8   // length r, one of colActive/colPassive/colSkipped
	idx   []int     // passive columns in insertion order
	chol  []float64 // r×r row-major; row a holds L[a][0..a], LLᵀ = G[idx,idx]
	z     []float64 // z[a] solves the subsystem for column idx[a]
}

func newActiveSet(r int) activeSet {
	return activeSet{
		state: make([]uint8, r),
		idx:   make([]int, 0, r),
		chol:  make([]float64, r*r),
		z:     make([]float64, r),
	}
}

// solve writes argmin ½wᵀGw − bᵀw s.t. w ≥ 0 into w (length r, fully
// overwritten) by the Lawson–Hanson active-set method: the column with the
// largest dual λ_j = b_j − (Gw)_j enters the passive set P; the
// unconstrained solution z of G_PP z = b_P is taken whole when it is
// positive, else w steps toward it until the first weight hits zero and
// that column leaves P. With g = ΨΨᵀ and b = Ψsᵀ this is Problem 3. Every
// test is scale-free: a column enters when its dual exceeds rounding
// relative to max|b|, and z is feasible when z > 0. It returns the number
// of outer steps, at most maxIter.
func (as *activeSet) solve(w []float64, g *mat.Dense, b []float64, maxIter int) int {
	r := len(w)
	var bmax float64
	for i := range w {
		w[i] = 0
		as.state[i] = colActive
		bmax = math.Max(bmax, math.Abs(b[i]))
	}
	as.idx = as.idx[:0]
	tol := 10 * float64(r) * eps * bmax
	iters := 0
	for iters < maxIter {
		j, best := -1, tol
		for c, st := range as.state {
			if st != colActive {
				continue
			}
			lam := b[c]
			gRow := g.RawRow(c)
			for _, k := range as.idx {
				lam -= gRow[k] * w[k]
			}
			if lam > best {
				j, best = c, lam
			}
		}
		if j < 0 {
			break
		}
		iters++
		p := len(as.idx)
		as.state[j] = colPassive
		as.idx = append(as.idx, j)
		as.factor(g, w, p)
		if len(as.idx) == p {
			continue // j's pivot collapsed; factor barred it
		}
		as.solveZ(b)
		if as.z[p] <= 0 {
			// Only rounding can leave an entering column with a positive
			// dual at z_j ≤ 0; stepping toward z would not move it.
			as.idx = as.idx[:p]
			as.state[j] = colSkipped
			continue
		}
		for {
			alpha, q := 0.0, -1
			for a, c := range as.idx {
				if z := as.z[a]; z <= 0 {
					if t := w[c] / (w[c] - z); q < 0 || t < alpha {
						alpha, q = t, a
					}
				}
			}
			if q < 0 {
				break
			}
			for a, c := range as.idx {
				w[c] += alpha * (as.z[a] - w[c])
			}
			w[as.idx[q]] = 0
			as.factor(g, w, as.dropNonPositive(w))
			as.solveZ(b)
		}
		for a, c := range as.idx {
			w[c] = as.z[a]
		}
		for c, st := range as.state {
			if st == colSkipped {
				as.state[c] = colActive
			}
		}
	}
	return iters
}

// factor rebuilds the Cholesky rows from position `from` on; earlier rows
// depend only on the unchanged prefix of idx. A column whose pivot
// collapses leaves P with w_j = 0 and is skipped until P grows.
func (as *activeSet) factor(g *mat.Dense, w []float64, from int) {
	r := len(as.state)
	for a := from; a < len(as.idx); {
		col := as.idx[a]
		gRow := g.RawRow(col)
		la := as.chol[a*r : a*r+a+1]
		for c := 0; c < a; c++ {
			sum := gRow[as.idx[c]]
			for t, v := range as.chol[c*r : c*r+c] {
				sum -= la[t] * v
			}
			la[c] = sum / as.chol[c*r+c]
		}
		d := gRow[col]
		for _, v := range la[:a] {
			d -= v * v
		}
		if d <= collapseTol*gRow[col] {
			as.state[col] = colSkipped
			w[col] = 0
			as.idx = append(as.idx[:a], as.idx[a+1:]...)
			continue
		}
		la[a] = math.Sqrt(d)
		a++
	}
}

// solveZ solves G_PP z = b_P by forward and back substitution on the
// factor.
func (as *activeSet) solveZ(b []float64) {
	r := len(as.state)
	p := len(as.idx)
	z := as.z[:p]
	for a, c := range as.idx {
		sum := b[c]
		la := as.chol[a*r : a*r+a+1]
		for t, v := range la[:a] {
			sum -= v * z[t]
		}
		z[a] = sum / la[a]
	}
	for a := p - 1; a >= 0; a-- {
		sum := z[a]
		for c := a + 1; c < p; c++ {
			sum -= as.chol[c*r+a] * z[c]
		}
		z[a] = sum / as.chol[a*r+a]
	}
}

// dropNonPositive moves every passive column with w_j ≤ 0 back to the
// active set and returns the first position it changed, from which the
// factor must be rebuilt.
func (as *activeSet) dropNonPositive(w []float64) int {
	first := len(as.idx)
	kept := as.idx[:0]
	for a, c := range as.idx {
		if w[c] > 0 {
			kept = append(kept, c)
			continue
		}
		w[c] = 0
		as.state[c] = colActive
		first = min(first, a)
	}
	as.idx = kept
	return first
}

// KKTViolation certifies a solution of min ‖s − wΨ‖² s.t. w ≥ 0 given
// g = ΨΨᵀ (r×r) and b = Ψsᵀ (length r = len(w)). With gradient
// ∇ = Gw − b the optimum has w ≥ 0, ∇ ≥ 0 and w_j∇_j = 0. The violation is
// the largest of −w_jG_jj (a negative weight in gradient units), −∇_j, and
// |∇_j| where w_j > 0, divided by max|b_j| so it is scale-free (taken
// absolute when b = 0). An exact optimum scores at rounding level.
func KKTViolation(w []float64, g *mat.Dense, b []float64) float64 {
	var worst, bmax float64
	for j, bj := range b {
		gRow := g.RawRow(j)
		grad := -bj
		for k, wk := range w {
			grad += gRow[k] * wk
		}
		v := math.Max(-grad, -w[j]*gRow[j])
		if w[j] > 0 {
			v = math.Abs(grad)
		}
		worst = math.Max(worst, v)
		bmax = math.Max(bmax, math.Abs(bj))
	}
	if bmax == 0 {
		return worst
	}
	return worst / bmax
}
