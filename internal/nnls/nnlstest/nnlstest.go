// Package nnlstest holds the optimality assertion shared by the tests of
// the NNLS solver and of the packages that diagnose through it.
package nnlstest

import (
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nnls"
)

// Tol is the largest relative KKT violation an exact solve may show.
const Tol = 1e-9

// Violation is nnls.KKTViolation of w for min ‖s − wΨ‖² s.t. w ≥ 0, with
// G = ΨΨᵀ and b = Ψsᵀ formed from psi and s.
func Violation(psi *mat.Dense, s, w []float64) float64 {
	r, _ := psi.Dims()
	g := mat.MustNew(r, r)
	mat.MulABTInto(g, psi, psi)
	b := make([]float64, r)
	for i := range b {
		for k, v := range psi.RawRow(i) {
			b[i] += v * s[k]
		}
	}
	return nnls.KKTViolation(w, g, b)
}

// AssertKKT fails t unless w is the optimum of min ‖s − wΨ‖² s.t. w ≥ 0
// to within Tol. It reports with t.Errorf, so any goroutine may call it.
func AssertKKT(t testing.TB, psi *mat.Dense, s, w []float64) {
	t.Helper()
	if v := Violation(psi, s, w); v > Tol {
		t.Errorf("relative KKT violation %.3g > %g at w = %v", v, Tol, w)
	}
}
