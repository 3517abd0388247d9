package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/vn2/online"
)

// tinyScale is a few dozen nodes over a short trace: enough to exercise
// every layer in seconds.
var tinyScale = Scale{Nodes: 30, Days: 14, TrainDays: 2, Rank: 5, CalEpochs: 48, Tiles: 2}

const tinyEpochs = 48

var vn2Bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	vn2Bin = filepath.Join(dir, "vn2")
	cmd := exec.Command("go", "build", "-o", vn2Bin, "github.com/wsn-tools/vn2/cmd/vn2")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny returns a workload with a short epoch period so a test run is quick.
func tiny(t *testing.T, name string) Workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.Period = w.Period / 4
	return w
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tiny(t, w.Name), traced
			t.Run(w.Name+map[bool]string{false: "/e2e", true: "/traced"}[traced], func(t *testing.T) {
				work := t.TempDir()
				runDir := filepath.Join(work, "run")
				os.MkdirAll(runDir, 0o755)
				res, err := measure(w, 3, tinyScale, tinyEpochs, traced, vn2Bin, work, runDir)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("run not correct: %+v", res)
				}
				want := e2eNames
				if traced {
					want = layerNames
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v", n, m)
					}
				}
				if traced {
					var sum float64
					for _, l := range layers {
						sum += res.Metrics["share."+l].Value
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("layer shares sum to %v, want 1", sum)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's workload and
// metric lists, with their units, in step with what a run prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	for _, c := range []struct {
		list  []entry
		names []string
	}{{spec.EndToEnd, e2eNames}, {spec.PerLayer, layerNames}} {
		if len(c.list) != len(c.names) {
			t.Errorf("BENCHMARK.json lists %d metrics, a run prints %d", len(c.list), len(c.names))
		}
		printed := map[string]bool{}
		for _, n := range c.names {
			printed[n] = true
		}
		for _, m := range c.list {
			if !printed[m.Name] || units[m.Name] != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s): printed %v with unit %q", m.Name, m.Unit, printed[m.Name], units[m.Name])
			}
		}
	}
}

func TestFixturesArePureFunctionsOfTheSeed(t *testing.T) {
	w := tiny(t, "incident")
	a, err := buildFixture(w, 5, tinyScale, tinyEpochs, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFixture(w, 5, tinyScale, tinyEpochs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildFixture(w, 6, tinyScale, tinyEpochs, "")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Digests {
		if b.Digests[k] != v {
			t.Errorf("%s digest differs between two builds of one seed", k)
		}
	}
	if c.Digests["trace"] == a.Digests["trace"] || c.Digests["calibration"] == a.Digests["calibration"] {
		t.Error("another seed gave the same trace or calibration")
	}
}

func TestOracleCatchesTamperedAndDroppedEpochs(t *testing.T) {
	f, err := buildFixture(tiny(t, "incident"), 3, tinyScale, tinyEpochs, "")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Epochs) < 2 {
		t.Fatalf("reference has %d flagged epochs; the test needs two", len(ref.Epochs))
	}
	var all []online.EpochCauses
	for _, ec := range ref.Epochs {
		all = append(all, ec)
	}
	now := time.Now()

	exact := newTracker(ref)
	for _, ec := range all {
		exact.observe(ec.Epoch, ec.States, ec.Distribution, now)
	}
	if n := exact.misses(); n != 0 {
		t.Fatalf("exact replay: %d misses", n)
	}
	if n := exact.checkRetained(all); n != 0 {
		t.Fatalf("exact retained view: %d differ", n)
	}

	tampered := newTracker(ref)
	for i, ec := range all {
		d := append([]float64(nil), ec.Distribution...)
		if i == 0 {
			for j := range d {
				if d[j] > 0 {
					d[j] = math.Nextafter(d[j], math.Inf(1)) // one ulp off
					break
				}
			}
		}
		tampered.observe(ec.Epoch, ec.States, d, now)
	}
	if n := tampered.misses(); n != 1 {
		t.Errorf("tampered distribution: %d misses, want 1", n)
	}

	dropped := newTracker(ref)
	for _, ec := range all[1:] {
		dropped.observe(ec.Epoch, ec.States, ec.Distribution, now)
	}
	if n := dropped.misses(); n != 1 {
		t.Errorf("dropped epoch: %d misses, want 1", n)
	}
	if n := newTracker(ref).checkRetained(append([]online.EpochCauses{{Epoch: -1, States: 1}}, all...)); n != 1 {
		t.Errorf("retained view with an unknown epoch: %d differ, want 1", n)
	}
}

func TestTracerSelfTimesSumToRoots(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("sink.commit", -1)
	time.Sleep(2 * time.Millisecond)
	tr.estimate("store.sync", root, func() { time.Sleep(time.Millisecond) })
	child := tr.begin("ingest.decode", root)
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	shares := tr.shares()
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if shares["store"] <= 0 || shares["sink"] <= 0 || shares["ingest"] <= 0 {
		t.Fatalf("every layer with a span needs a share: %v", shares)
	}
	if !strings.HasPrefix(tr.spans[1].Name, "store.") || !tr.spans[1].Estimate {
		t.Fatalf("estimate not recorded as a child span: %+v", tr.spans)
	}
}
