package vn2

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

func TestDiagnoseEpochsGroupsAndRanks(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 31})
	// Two epochs: epoch 100 has a loop fault on two nodes, epoch 101 has a
	// contention fault on one node.
	mk := func(node packet.NodeID, epoch int, loop bool) trace.StateVector {
		d := make([]float64, metricspec.MetricCount)
		if loop {
			d[metricspec.LoopCounter] = 45
			d[metricspec.DuplicateCounter] = 130
			d[metricspec.TransmitCounter] = 420
		} else {
			d[metricspec.NOACKRetransmitCounter] = 320
			d[metricspec.MacBackoffCounter] = 210
		}
		return trace.StateVector{Node: node, Epoch: epoch, Gap: 1, Delta: d}
	}
	states := []trace.StateVector{
		mk(1, 100, true),
		mk(2, 100, true),
		mk(3, 101, false),
	}
	eds, err := model.DiagnoseEpochs(states, DiagnoseConfig{})
	if err != nil {
		t.Fatalf("DiagnoseEpochs: %v", err)
	}
	if len(eds) != 2 {
		t.Fatalf("epochs = %d, want 2", len(eds))
	}
	if eds[0].Epoch != 100 || eds[1].Epoch != 101 {
		t.Fatalf("epoch order = %d,%d", eds[0].Epoch, eds[1].Epoch)
	}
	if eds[0].States != 2 || eds[1].States != 1 {
		t.Errorf("state counts = %d,%d", eds[0].States, eds[1].States)
	}
	if len(eds[0].Combination) == 0 {
		t.Fatal("epoch 100 has no combination")
	}
	// The loop epoch's dominant cause must list both affected nodes.
	top := eds[0].Combination[0].Cause
	nodes := eds[0].AffectedNodes[top]
	if len(nodes) != 2 {
		t.Errorf("affected nodes for dominant cause = %v, want both", nodes)
	}
	// Different fault types land on different dominant causes.
	if eds[0].Combination[0].Cause == eds[1].Combination[0].Cause {
		t.Error("loop epoch and contention epoch share a dominant cause")
	}
}

func TestDiagnoseEpochsErrors(t *testing.T) {
	var empty Model
	if _, err := empty.DiagnoseEpochs(nil, DiagnoseConfig{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained err = %v", err)
	}
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 32})
	if _, err := model.DiagnoseEpochs(nil, DiagnoseConfig{}); !errors.Is(err, ErrNoStates) {
		t.Errorf("empty err = %v", err)
	}
}

func TestFitPRRLearnsLinearMap(t *testing.T) {
	// PRR = 0.95 − 0.3·cause0 − 0.1·cause2 + noise.
	rng := rand.New(rand.NewSource(33))
	var dists [][]float64
	var prr []float64
	for i := 0; i < 200; i++ {
		d := []float64{rng.Float64(), rng.Float64() * 0.2, rng.Float64()}
		dists = append(dists, d)
		prr = append(prr, 0.95-0.3*d[0]-0.1*d[2]+rng.NormFloat64()*0.01)
	}
	est, err := FitPRR(dists, prr, 0)
	if err != nil {
		t.Fatalf("FitPRR: %v", err)
	}
	r2, err := est.Score(dists, prr)
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if r2 < 0.9 {
		t.Errorf("R² = %v, want > 0.9 on a linear relationship", r2)
	}
	// A degraded epoch must predict lower PRR than a healthy one.
	healthy, err := est.Predict([]float64{0, 0, 0})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	degraded, err := est.Predict([]float64{1, 0, 1})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if degraded >= healthy {
		t.Errorf("degraded PRR %v not below healthy %v", degraded, healthy)
	}
	if math.Abs(healthy-0.95) > 0.05 {
		t.Errorf("healthy prediction = %v, want ~0.95", healthy)
	}
}

func TestPredictClamped(t *testing.T) {
	est := &PRREstimator{Beta: []float64{2, -5}, Rank: 1}
	hi, err := est.Predict([]float64{0})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if hi != 1 {
		t.Errorf("prediction %v not clamped to 1", hi)
	}
	lo, err := est.Predict([]float64{1})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if lo != 0 {
		t.Errorf("prediction %v not clamped to 0", lo)
	}
}

func TestPRREstimatorErrors(t *testing.T) {
	if _, err := FitPRR(nil, nil, 0); !errors.Is(err, ErrNoStates) {
		t.Errorf("empty FitPRR err = %v", err)
	}
	if _, err := FitPRR([][]float64{{1}}, []float64{0.5, 0.6}, 0); !errors.Is(err, ErrStateLength) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := FitPRR([][]float64{{1}, {2, 3}}, []float64{0.5, 0.6}, 0); !errors.Is(err, ErrStateLength) {
		t.Errorf("ragged err = %v", err)
	}
	var unfitted *PRREstimator
	if _, err := unfitted.Predict([]float64{1}); !errors.Is(err, ErrEstimatorNotFitted) {
		t.Errorf("unfitted err = %v", err)
	}
	est, err := FitPRR([][]float64{{0.1}, {0.9}, {0.4}}, []float64{0.9, 0.2, 0.6}, 0)
	if err != nil {
		t.Fatalf("FitPRR: %v", err)
	}
	if _, err := est.Predict([]float64{1, 2}); !errors.Is(err, ErrStateLength) {
		t.Errorf("length err = %v", err)
	}
	if _, err := est.Score([][]float64{{1}}, nil); !errors.Is(err, ErrStateLength) {
		t.Errorf("score mismatch err = %v", err)
	}
}

func TestPRREndToEndOnSimulatedEpochs(t *testing.T) {
	// End-to-end: epochs with stronger fault activity must predict lower
	// PRR after fitting on simulated history.
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 34})
	rng := rand.New(rand.NewSource(35))
	var dists [][]float64
	var prr []float64
	for e := 0; e < 60; e++ {
		faulty := e%3 == 0
		var states []trace.StateVector
		for node := packet.NodeID(1); node <= 8; node++ {
			d := make([]float64, metricspec.MetricCount)
			for k := range d {
				d[k] = rng.NormFloat64() * 0.2
			}
			if faulty && node <= 3 {
				d[metricspec.LoopCounter] = 40 + rng.Float64()*10
				d[metricspec.DuplicateCounter] = 120 + rng.Float64()*20
				d[metricspec.TransmitCounter] = 400 + rng.Float64()*50
			}
			states = append(states, trace.StateVector{Node: node, Epoch: 100 + e, Gap: 1, Delta: d})
		}
		eds, err := model.DiagnoseEpochs(states, DiagnoseConfig{})
		if err != nil {
			t.Fatalf("DiagnoseEpochs: %v", err)
		}
		dists = append(dists, eds[0].Distribution)
		if faulty {
			prr = append(prr, 0.55+rng.Float64()*0.1)
		} else {
			prr = append(prr, 0.92+rng.Float64()*0.05)
		}
	}
	est, err := FitPRR(dists, prr, 0)
	if err != nil {
		t.Fatalf("FitPRR: %v", err)
	}
	r2, err := est.Score(dists, prr)
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if r2 < 0.5 {
		t.Errorf("R² = %v on cause-driven PRR, want > 0.5", r2)
	}
}

func TestDiagnoseBatchParallelMatchesSequential(t *testing.T) {
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 36})
	states := synthStates(60, 37)
	seq := diagnoseBatch(t, model, states, DiagnoseConfig{})
	par := diagnoseBatch(t, model, states, DiagnoseConfig{Workers: 4})
	for i := range seq {
		for j := range seq[i].Weights {
			if seq[i].Weights[j] != par[i].Weights[j] {
				t.Fatalf("state %d cause %d differs", i, j)
			}
		}
	}
}

func TestUpdateWarmStartsFromExistingModel(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 38})
	// A fresh batch with the same fault archetypes.
	fresh := synthStates(3000, 99)
	updated, report, err := model.Update(fresh, TrainConfig{Seed: 38})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if updated.Rank != model.Rank {
		t.Errorf("rank changed: %d -> %d", model.Rank, updated.Rank)
	}
	for k := range model.Scale {
		if updated.Scale[k] != model.Scale[k] {
			t.Fatal("Update changed the normalization scale")
		}
	}
	if report.ExceptionStates == 0 {
		t.Error("no exceptions in the update batch")
	}
	// The updated model must still diagnose the planted archetypes, and a
	// loop state must land on a cause whose signature moves Loop_counter.
	s := trace.StateVector{Delta: make([]float64, metricspec.MetricCount)}
	s.Delta[metricspec.LoopCounter] = 45
	s.Delta[metricspec.DuplicateCounter] = 130
	s.Delta[metricspec.TransmitCounter] = 420
	d := diagnose(t, updated, s)
	if d.Dominant() < 0 {
		t.Fatal("updated model found no cause for a loop state")
	}
	// The receiver must be untouched.
	if model.TrainStates == updated.TrainStates && model.Psi == updated.Psi {
		t.Error("Update returned the receiver")
	}
}

func TestUpdateErrors(t *testing.T) {
	var empty Model
	if _, _, err := empty.Update(synthStates(10, 1), TrainConfig{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained err = %v", err)
	}
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 39})
	if _, _, err := model.Update(nil, TrainConfig{}); !errors.Is(err, ErrNoStates) {
		t.Errorf("empty err = %v", err)
	}
	// Too few new states to support the rank: 3 states can yield at most 3
	// exceptions, below rank 4.
	tiny := synthStates(299, 40)[3:6] // calm slice (archetypes at i%300==0,1,2)
	if _, _, err := model.Update(tiny, TrainConfig{}); err == nil {
		t.Error("update with fewer exceptions than rank succeeded")
	}
}

func TestLabelsLifecycle(t *testing.T) {
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 41})
	if err := model.SetLabel(1, "routing loop"); err != nil {
		t.Fatalf("SetLabel: %v", err)
	}
	if model.Label(1) != "routing loop" {
		t.Errorf("Label = %q", model.Label(1))
	}
	if model.Label(0) != "" {
		t.Errorf("unlabeled cause has label %q", model.Label(0))
	}
	exp, err := model.Explain(1, 3)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if exp.Label != "routing loop" {
		t.Errorf("Explanation.Label = %q", exp.Label)
	}
	if !strings.Contains(exp.Summary(), `"routing loop"`) {
		t.Errorf("Summary missing label: %q", exp.Summary())
	}
	// Labels survive save/load.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Label(1) != "routing loop" {
		t.Error("label lost in round trip")
	}
	// Removal.
	if err := model.SetLabel(1, ""); err != nil {
		t.Fatalf("SetLabel remove: %v", err)
	}
	if model.Label(1) != "" {
		t.Error("label not removed")
	}
	// Errors.
	if err := model.SetLabel(99, "x"); !errors.Is(err, ErrBadCause) {
		t.Errorf("bad cause err = %v", err)
	}
	var empty Model
	if err := empty.SetLabel(0, "x"); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained err = %v", err)
	}
}
