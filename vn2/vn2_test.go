package vn2

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/nnls/nnlstest"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// diagnose is Model.Diagnose with the answer certified as the exact
// optimum of Problem 3.
func diagnose(t *testing.T, m *Model, state trace.StateVector) *Diagnosis {
	t.Helper()
	d, err := m.Diagnose(state)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	assertKKT(t, m, state, d.Weights)
	return d
}

// diagnoseBatch is Model.DiagnoseBatch with every answer certified.
func diagnoseBatch(t *testing.T, m *Model, states []trace.StateVector, cfg DiagnoseConfig) []*Diagnosis {
	t.Helper()
	ds, err := m.DiagnoseBatch(states, cfg)
	if err != nil {
		t.Fatalf("DiagnoseBatch: %v", err)
	}
	for i, d := range ds {
		assertKKT(t, m, states[i], d.Weights)
	}
	return ds
}

// assertKKT certifies w as the optimum for state in the model's normalized
// space.
func assertKKT(t *testing.T, m *Model, state trace.StateVector, w []float64) {
	t.Helper()
	s, err := m.normalize(state.Delta)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	nnlstest.AssertKKT(t, m.Psi, s, w)
}

// synthStates builds a training set with three planted fault archetypes on
// top of calm background states, so the factorization has real structure
// to find.
func synthStates(n int, seed int64) []trace.StateVector {
	rng := rand.New(rand.NewSource(seed))
	var out []trace.StateVector
	for i := 0; i < n; i++ {
		delta := make([]float64, metricspec.MetricCount)
		for k := range delta {
			delta[k] = rng.NormFloat64() * 0.2
		}
		switch {
		case i%300 == 0: // retransmission storm / contention archetype
			delta[metricspec.NOACKRetransmitCounter] += 300 + rng.Float64()*60
			delta[metricspec.MacBackoffCounter] += 200 + rng.Float64()*40
		case i%300 == 1: // routing loop archetype
			delta[metricspec.LoopCounter] += 40 + rng.Float64()*10
			delta[metricspec.DuplicateCounter] += 120 + rng.Float64()*30
			delta[metricspec.TransmitCounter] += 400 + rng.Float64()*80
			delta[metricspec.OverflowDropCounter] += 30 + rng.Float64()*10
		case i%300 == 2: // node reboot archetype (counter resets)
			delta[metricspec.Uptime] -= 30000 + rng.Float64()*5000
			delta[metricspec.TransmitCounter] -= 2000 + rng.Float64()*300
			delta[metricspec.ReceiveCounter] -= 1500 + rng.Float64()*300
		}
		out = append(out, trace.StateVector{
			Node:  packet.NodeID(1 + i%10),
			Epoch: 2 + i/10,
			Gap:   1,
			Delta: delta,
		})
	}
	return out
}

func trainSynth(t *testing.T, n int, cfg TrainConfig) (*Model, *TrainReport) {
	t.Helper()
	model, report, err := Train(synthStates(n, 42), cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return model, report
}

func TestTrainBasics(t *testing.T) {
	model, report := trainSynth(t, 3000, TrainConfig{Rank: 6, Seed: 1})
	if model.Rank != 6 {
		t.Errorf("Rank = %d", model.Rank)
	}
	if model.Metrics() != metricspec.MetricCount {
		t.Errorf("Metrics = %d", model.Metrics())
	}
	if report.TotalStates != 3000 {
		t.Errorf("TotalStates = %d", report.TotalStates)
	}
	if report.ExceptionStates == 0 || report.ExceptionStates == 3000 {
		t.Errorf("ExceptionStates = %d; extraction should keep a strict subset", report.ExceptionStates)
	}
	if report.Accuracy <= 0 {
		t.Errorf("Accuracy = %v", report.Accuracy)
	}
	if report.SparseAccuracy < report.Accuracy-1e-9 {
		t.Errorf("sparse accuracy %v better than original %v", report.SparseAccuracy, report.Accuracy)
	}
	if !model.Psi.NonNegative() {
		t.Error("Psi has negative entries")
	}
	if len(model.MetricNames) != metricspec.MetricCount || model.MetricNames[int(metricspec.LoopCounter)] != "Loop_counter" {
		t.Error("metric names wrong")
	}
}

func TestTrainEmptyStates(t *testing.T) {
	if _, _, err := Train(nil, TrainConfig{}); !errors.Is(err, ErrNoStates) {
		t.Errorf("err = %v, want ErrNoStates", err)
	}
}

func TestTrainDeterministic(t *testing.T) {
	cfg := TrainConfig{Rank: 5, Seed: 9}
	a, _, err := Train(synthStates(2000, 1), cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	b, _, err := Train(synthStates(2000, 1), cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for j := 0; j < a.Rank; j++ {
		ra, _ := a.RootCause(j)
		rb, _ := b.RootCause(j)
		for k := range ra {
			if ra[k] != rb[k] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestTrainCompressAllStates(t *testing.T) {
	states := synthStates(120, 3)
	_, report, err := Train(states, TrainConfig{Rank: 4, Seed: 2, CompressAllStates: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if report.ExceptionStates != len(states) {
		t.Errorf("ExceptionStates = %d, want all %d", report.ExceptionStates, len(states))
	}
}

func TestTrainAutoRankSweep(t *testing.T) {
	model, report, err := Train(synthStates(2400, 5), TrainConfig{
		Seed: 3, SweepMin: 2, SweepMax: 10, SweepStep: 2, MaxIter: 80,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(report.RankSweep) == 0 {
		t.Fatal("no sweep points recorded")
	}
	if report.SelectedRank != model.Rank {
		t.Errorf("SelectedRank %d != model.Rank %d", report.SelectedRank, model.Rank)
	}
	found := false
	for _, p := range report.RankSweep {
		if p.Rank == model.Rank {
			found = true
		}
	}
	if !found {
		t.Errorf("selected rank %d not among sweep points", model.Rank)
	}
}

func TestTrainRankClampedToData(t *testing.T) {
	// Few exception states: requested rank larger than data must clamp.
	states := synthStates(900, 7)
	model, _, err := Train(states, TrainConfig{Rank: 50, Seed: 1, CompressAllStates: false})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if model.Rank > 43 {
		t.Errorf("rank %d exceeds metric count", model.Rank)
	}
}

func TestDiagnoseRecoversPlantedCause(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 4})

	// A fresh loop-archetype state must be attributed mostly to the same
	// root cause as the training loop states.
	mk := func(kind int) trace.StateVector {
		delta := make([]float64, metricspec.MetricCount)
		switch kind {
		case 0:
			delta[metricspec.NOACKRetransmitCounter] = 320
			delta[metricspec.MacBackoffCounter] = 210
		case 1:
			delta[metricspec.LoopCounter] = 45
			delta[metricspec.DuplicateCounter] = 130
			delta[metricspec.TransmitCounter] = 420
			delta[metricspec.OverflowDropCounter] = 33
		}
		return trace.StateVector{Node: 99, Epoch: 100, Gap: 1, Delta: delta}
	}
	dContention := diagnose(t, model, mk(0))
	dLoop := diagnose(t, model, mk(1))
	if dContention.Dominant() < 0 || dLoop.Dominant() < 0 {
		t.Fatal("no dominant cause inferred")
	}
	if dContention.Dominant() == dLoop.Dominant() {
		t.Error("distinct fault archetypes mapped to the same dominant root cause")
	}
	// The two diagnoses must be stable: diagnosing the same state twice
	// gives identical weights.
	d2 := diagnose(t, model, mk(1))
	for j := range dLoop.Weights {
		if dLoop.Weights[j] != d2.Weights[j] {
			t.Fatal("diagnosis not deterministic")
		}
	}
}

func TestDiagnoseNormalStateIsQuiet(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 6})
	calm := trace.StateVector{Node: 1, Epoch: 9, Gap: 1, Delta: make([]float64, metricspec.MetricCount)}
	d := diagnose(t, model, calm)
	var total float64
	for _, w := range d.Weights {
		total += w
	}
	// Faulty states for comparison.
	hot := trace.StateVector{Node: 1, Epoch: 9, Gap: 1, Delta: make([]float64, metricspec.MetricCount)}
	hot.Delta[metricspec.NOACKRetransmitCounter] = 300
	dh := diagnose(t, model, hot)
	var hotTotal float64
	for _, w := range dh.Weights {
		hotTotal += w
	}
	if total >= hotTotal {
		t.Errorf("calm state strength %v not below faulty state strength %v", total, hotTotal)
	}
	if !d.Normal(hotTotal / 10) {
		t.Errorf("calm state not Normal at tolerance %v (weights %v)", hotTotal/10, d.Weights)
	}
}

func TestDiagnoseErrors(t *testing.T) {
	var empty Model
	s := trace.StateVector{Delta: make([]float64, metricspec.MetricCount)}
	if _, err := empty.Diagnose(s); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained err = %v", err)
	}
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 8})
	if _, err := model.Diagnose(trace.StateVector{Delta: []float64{1}}); !errors.Is(err, ErrStateLength) {
		t.Errorf("short state err = %v", err)
	}
	if _, err := model.DiagnoseBatch(nil, DiagnoseConfig{}); !errors.Is(err, ErrNoStates) {
		t.Errorf("empty batch err = %v", err)
	}
}

func TestDiagnoseBatchMatchesSingle(t *testing.T) {
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 5, Seed: 10})
	states := synthStates(30, 77)
	batch := diagnoseBatch(t, model, states, DiagnoseConfig{})
	if len(batch) != len(states) {
		t.Fatalf("batch = %d", len(batch))
	}
	for i := 0; i < 5; i++ {
		single := diagnose(t, model, states[i])
		for j := range single.Weights {
			if math.Abs(single.Weights[j]-batch[i].Weights[j]) > 1e-9 {
				t.Fatalf("batch diverges from single at state %d cause %d", i, j)
			}
		}
	}
}

func TestCauseDistribution(t *testing.T) {
	d1 := &Diagnosis{Ranked: []RankedCause{{Cause: 0, Strength: 2}, {Cause: 2, Strength: 1}}}
	d2 := &Diagnosis{Ranked: []RankedCause{{Cause: 0, Strength: 3}}}
	dist := CauseDistribution([]*Diagnosis{d1, d2}, 4)
	want := []float64{5, 0, 1, 0}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
	norm := NormalizeDistribution(dist)
	var sum float64
	for _, v := range norm {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("normalized sum = %v", sum)
	}
	zero := NormalizeDistribution([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("NormalizeDistribution of zeros should stay zero")
	}
}

func TestCorrelationMatrixShape(t *testing.T) {
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 11})
	states := synthStates(25, 5)
	cm, err := model.CorrelationMatrix(states, DiagnoseConfig{})
	if err != nil {
		t.Fatalf("CorrelationMatrix: %v", err)
	}
	if cm.Rows() != 25 || cm.Cols() != 4 {
		t.Fatalf("shape %dx%d", cm.Rows(), cm.Cols())
	}
	for i, st := range states {
		assertKKT(t, model, st, cm.RawRow(i))
	}
	if !cm.NonNegative() {
		t.Error("correlation strengths must be non-negative")
	}
}

func TestExplain(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 12})
	for j := 0; j < model.Rank; j++ {
		exp, err := model.Explain(j, 5)
		if err != nil {
			t.Fatalf("Explain(%d): %v", j, err)
		}
		if len(exp.Top) != 5 {
			t.Fatalf("Top = %d", len(exp.Top))
		}
		for i := 1; i < len(exp.Top); i++ {
			if exp.Top[i].Weight > exp.Top[i-1].Weight {
				t.Error("Top not sorted by weight")
			}
		}
		if exp.Category < CategoryPhysical || exp.Category > CategoryProtocol {
			t.Errorf("category = %v", exp.Category)
		}
		if exp.Summary() == "" {
			t.Error("empty summary")
		}
	}
}

func TestExplainLoopCauseMentionsLoopHazard(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 13})
	// Find the cause a loop state maps to and check its explanation leans
	// protocol with a loop/duplicate hazard.
	s := trace.StateVector{Delta: make([]float64, metricspec.MetricCount)}
	s.Delta[metricspec.LoopCounter] = 45
	s.Delta[metricspec.DuplicateCounter] = 130
	s.Delta[metricspec.TransmitCounter] = 420
	s.Delta[metricspec.OverflowDropCounter] = 33
	d := diagnose(t, model, s)
	exp, err := model.Explain(d.Dominant(), 6)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if exp.Category != CategoryProtocol {
		t.Errorf("loop cause category = %v, want protocol", exp.Category)
	}
	if len(exp.Hazards) == 0 {
		t.Error("no Table I hazards attached to a counter-dominated cause")
	}
}

func TestExplainErrors(t *testing.T) {
	var empty Model
	if _, err := empty.Explain(0, 3); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained err = %v", err)
	}
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 3, Seed: 14})
	if _, err := model.Explain(-1, 3); !errors.Is(err, ErrBadCause) {
		t.Errorf("negative cause err = %v", err)
	}
	if _, err := model.Explain(3, 3); !errors.Is(err, ErrBadCause) {
		t.Errorf("overflow cause err = %v", err)
	}
	if _, err := model.RootCause(9); !errors.Is(err, ErrBadCause) {
		t.Errorf("RootCause err = %v", err)
	}
	if _, err := model.Signature(9); !errors.Is(err, ErrBadCause) {
		t.Errorf("Signature err = %v", err)
	}
}

func TestSignatureRange(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 15})
	for j := 0; j < model.Rank; j++ {
		sig, err := model.Signature(j)
		if err != nil {
			t.Fatalf("Signature: %v", err)
		}
		maxAbs := 0.0
		for _, v := range sig {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > 1+1e-9 {
			t.Errorf("cause %d signature max |v| = %v > 1", j, maxAbs)
		}
	}
}

func TestRebootSignatureIsNegative(t *testing.T) {
	model, _ := trainSynth(t, 3000, TrainConfig{Rank: 5, Seed: 16})
	// The reboot archetype's dominant cause must show negative signed
	// variation on Uptime (counters reset).
	s := trace.StateVector{Delta: make([]float64, metricspec.MetricCount)}
	s.Delta[metricspec.Uptime] = -32000
	s.Delta[metricspec.TransmitCounter] = -2100
	s.Delta[metricspec.ReceiveCounter] = -1600
	d := diagnose(t, model, s)
	sig, err := model.Signature(d.Dominant())
	if err != nil {
		t.Fatalf("Signature: %v", err)
	}
	if sig[metricspec.Uptime] >= 0 {
		t.Errorf("reboot cause Uptime signature = %v, want negative", sig[metricspec.Uptime])
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	model, _ := trainSynth(t, 2000, TrainConfig{Rank: 4, Seed: 17})
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Rank != model.Rank || loaded.Keep != model.Keep {
		t.Error("metadata lost in round trip")
	}
	// A diagnosis through the loaded model must match the original.
	s := synthStates(1, 99)[0]
	a := diagnose(t, model, s)
	b := diagnose(t, loaded, s)
	for j := range a.Weights {
		if a.Weights[j] != b.Weights[j] {
			t.Fatal("loaded model diagnoses differently")
		}
	}
}

func TestSaveUntrained(t *testing.T) {
	var m Model
	if err := m.Save(&bytes.Buffer{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("err = %v", err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{bad")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":99,"model":null}`)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":1,"model":null}`)); err == nil {
		t.Error("nil model accepted")
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryPhysical.String() != "physical" || CategoryLink.String() != "link" ||
		CategoryProtocol.String() != "protocol" || Category(9).String() != "Category(9)" {
		t.Error("Category.String mismatch")
	}
}
