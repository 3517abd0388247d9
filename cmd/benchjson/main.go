// Command benchjson converts `go test -bench` text output into a stable
// JSON document so benchmark runs can be archived and diffed by machines.
// The text input stays benchstat-compatible — this tool only produces a
// machine-readable sidecar, it does not replace the text log.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | tee bench.txt
//	go run ./cmd/benchjson -o BENCH_2.json bench.txt
//
// With no file argument the tool reads stdin, so it also works as the tail
// of a pipe. With -diff it reads two such texts and prints, for every
// benchmark in both, the old and new ns/op and allocs/op and the change:
//
//	go run ./cmd/benchjson -diff bench.old.txt bench.txt
//
// This is the offline stand-in for benchstat: one sample per side (the
// last, when a text repeats a benchmark) and no significance test.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Benchmark is one result line.
type Benchmark struct {
	// Name is the benchmark name with the -P GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op metric.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem; omitted when absent.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other unit reported via b.ReportMetric.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	diffMode := flag.Bool("diff", false, "compare two bench texts: -diff old.txt new.txt")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff takes two files, got %d", flag.NArg()))
		}
		old, err := parseFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := parseFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if err := diff(os.Stdout, old, cur); err != nil {
			fatal(err)
		}
		return
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		fatal(err)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func parseFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// diff writes one row per benchmark of cur that old also has, in cur's
// order: ns/op and allocs/op on both sides and the relative ns/op change.
func diff(w io.Writer, old, cur *Report) error {
	type key struct {
		name  string
		procs int
	}
	prev := make(map[key]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[key{b.Name, b.Procs}] = b
	}
	allocs := func(b Benchmark) string {
		if b.AllocsPerOp == nil {
			return "-"
		}
		return strconv.FormatFloat(*b.AllocsPerOp, 'f', -1, 64)
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tprocs\told ns/op\tnew ns/op\tdelta\told allocs/op\tnew allocs/op")
	for _, b := range cur.Benchmarks {
		o, ok := prev[key{b.Name, b.Procs}]
		if !ok {
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(b.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%s\t%s\t%s\n", b.Name, b.Procs, o.NsPerOp, b.NsPerOp, delta, allocs(o), allocs(b))
	}
	return tw.Flush()
}

// parse reads `go test -bench` text and extracts the header and every
// result line. Unknown lines (PASS, ok, test logs) are ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// parseLine parses one result line:
//
//	BenchmarkName/sub-8   12  1234 ns/op  56 B/op  7 allocs/op  8.9 extra
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		// Not a result line (e.g. a benchmark that only logged output).
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("iterations in %q: %w", line, err)
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("value in %q: %w", line, err)
		}
		v := val
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true, nil
}
