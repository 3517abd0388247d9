package nnls_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nnls"
)

// TestSolveBatchIntoMatchesBatch: the buffer-reusing entry point is
// bit-identical to SolveBatch, and repeated calls into the same buffers
// (the steady-state drain pattern) fully overwrite stale contents.
func TestSolveBatchIntoMatchesBatch(t *testing.T) {
	psi := randomBasis(t, 4, 15, 21)
	rng := rand.New(rand.NewSource(22))
	states := mat.MustNew(30, 15)
	for i := 0; i < 30; i++ {
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

	weights := mat.MustNew(30, 4)
	residuals := make([]float64, 30)
	// Poison the buffers so any row SolveBatchInto fails to write shows up.
	for i := 0; i < 30; i++ {
		residuals[i] = -1
		for j := 0; j < 4; j++ {
			weights.Set(i, j, -7)
		}
	}
	for _, workers := range []int{0, 1, 3, 16} {
		if err := nnls.SolveBatchInto(weights, residuals, states, psi, nnls.Config{}, workers); err != nil {
			t.Fatalf("SolveBatchInto(workers=%d): %v", workers, err)
		}
		if !mat.Equal(seqW, weights, 0) {
			t.Fatalf("workers=%d: weights differ from SolveBatch", workers)
		}
		for i := range seqR {
			if residuals[i] != seqR[i] {
				t.Fatalf("workers=%d: residual %d differs", workers, i)
			}
		}
	}
}

func TestSolveBatchIntoBufferValidation(t *testing.T) {
	psi := randomBasis(t, 3, 10, 23)
	states := mat.MustNew(5, 10)
	good := func() (*mat.Dense, []float64) { return mat.MustNew(5, 3), make([]float64, 5) }

	w, res := good()
	if err := nnls.SolveBatchInto(w, res, mat.MustNew(5, 7), psi, nnls.Config{}, 1); !errors.Is(err, nnls.ErrShape) {
		t.Errorf("state/basis mismatch err = %v, want ErrShape", err)
	}
	_, res = good()
	if err := nnls.SolveBatchInto(mat.MustNew(4, 3), res, states, psi, nnls.Config{}, 1); err == nil || !strings.Contains(err.Error(), "weights buffer") {
		t.Errorf("short weights err = %v, want weights buffer error", err)
	}
	w, _ = good()
	if err := nnls.SolveBatchInto(w, make([]float64, 4), states, psi, nnls.Config{}, 1); err == nil || !strings.Contains(err.Error(), "residuals buffer") {
		t.Errorf("short residuals err = %v, want residuals buffer error", err)
	}
	w, res = good()
	if err := nnls.SolveBatchInto(mat.MustNew(5, 2), res, states, psi, nnls.Config{}, 1); err == nil || !strings.Contains(err.Error(), "weights buffer") {
		t.Errorf("narrow weights err = %v, want weights buffer error", err)
	}
	_ = w
}

// TestSolveBatchIntoAllocsPerChunk pins the batch's allocations to
// O(workers): the Gram matrix once, then one scratch set per chunk, and
// nothing per row.
func TestSolveBatchIntoAllocsPerChunk(t *testing.T) {
	const r, m, n = 25, 43, 1000
	psi := randomBasis(t, r, m, 24)
	rng := rand.New(rand.NewSource(25))
	states := mat.MustNew(n, m)
	for i := 0; i < n; i++ {
		w := make([]float64, r)
		for j := range w {
			if rng.Intn(4) == 0 {
				w[j] = rng.Float64()
			}
		}
		states.SetRow(i, mix(w, psi))
	}
	weights := mat.MustNew(n, r)
	residuals := make([]float64, n)
	for _, workers := range []int{0, 2, 4} {
		allocs := testing.AllocsPerRun(3, func() {
			if err := nnls.SolveBatchInto(weights, residuals, states, psi, nnls.Config{}, workers); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(4 + 12*max(workers, 1)); allocs > limit {
			t.Errorf("workers=%d: %v allocs per %d-row batch, want ≤ %v", workers, allocs, n, limit)
		}
	}
}
