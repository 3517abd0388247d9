package main

import (
	"bytes"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/wsn-tools/vn2
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorEpoch-8         	    1350	    875806 ns/op	   49495 B/op	    1185 allocs/op
BenchmarkCitySeeTraining/nodes60/seq 	       2	  84318440 ns/op
BenchmarkFig3aExceptionDetection-8   	      10	 104512345 ns/op	 1234567 B/op	    9999 allocs/op	      5760 states
some stray log line
PASS
ok  	github.com/wsn-tools/vn2	12.345s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("header = %q/%q", rep.Goos, rep.Goarch)
	}
	if rep.Pkg != "github.com/wsn-tools/vn2" {
		t.Errorf("pkg = %q", rep.Pkg)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3", len(rep.Benchmarks))
	}

	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimulatorEpoch" || b.Procs != 8 {
		t.Errorf("first = %q procs %d", b.Name, b.Procs)
	}
	if b.Iterations != 1350 || b.NsPerOp != 875806 {
		t.Errorf("first = %d iters, %v ns/op", b.Iterations, b.NsPerOp)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 49495 {
		t.Errorf("first bytes/op = %v", b.BytesPerOp)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 1185 {
		t.Errorf("first allocs/op = %v", b.AllocsPerOp)
	}

	b = rep.Benchmarks[1]
	if b.Name != "BenchmarkCitySeeTraining/nodes60/seq" || b.Procs != 1 {
		t.Errorf("second = %q procs %d", b.Name, b.Procs)
	}
	if b.BytesPerOp != nil {
		t.Error("second should have no -benchmem columns")
	}

	b = rep.Benchmarks[2]
	if got := b.Metrics["states"]; got != 5760 {
		t.Errorf("custom metric states = %v", got)
	}
}

func TestParseLineRejectsMalformedValue(t *testing.T) {
	_, ok, err := parseLine("BenchmarkX 2 notanumber ns/op")
	if err == nil || ok {
		t.Errorf("want error for malformed value, got ok=%v err=%v", ok, err)
	}
}

func TestParseLineSkipsNonResultLines(t *testing.T) {
	_, ok, err := parseLine("BenchmarkX/logging_something_odd")
	if err != nil || ok {
		t.Errorf("want silent skip, got ok=%v err=%v", ok, err)
	}
}

func TestDiff(t *testing.T) {
	old, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(`BenchmarkOnlyNew-8  10  5 ns/op
BenchmarkSimulatorEpoch-8  1350  437903 ns/op  49495 B/op  1000 allocs/op
BenchmarkCitySeeTraining/nodes60/seq  2  84318440 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := diff(&buf, old, cur); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("diff printed %d lines, want header + 2 shared benchmarks:\n%s", len(lines), buf.String())
	}
	if f := strings.Fields(lines[1]); f[0] != "BenchmarkSimulatorEpoch" || f[4] != "-50.0%" || f[5] != "1185" || f[6] != "1000" {
		t.Errorf("simulator row = %q", lines[1])
	}
	if f := strings.Fields(lines[2]); f[0] != "BenchmarkCitySeeTraining/nodes60/seq" || f[4] != "+0.0%" || f[5] != "-" {
		t.Errorf("training row = %q", lines[2])
	}
}
