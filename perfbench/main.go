// Command perfbench is the VN2 pipeline benchmark. It replays CitySee
// traffic from one load-generator process into real vn2 serve / vn2 router
// processes (WAL and snapshots on), checks every diagnosis against an
// in-process reference, and prints the end-to-end metrics; with -trace 1 it
// also replays the same inputs in-process through each layer's public API
// and prints the per-layer breakdown. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds a whole run; the SUT is killed and the run fails past it.
const runDeadline = 170 * time.Second

// units of every metric the benchmark prints.
var units = map[string]string{
	"setup_s": "s", "fresh_p50_ms": "ms", "fresh_p95_ms": "ms",
	"cpu_ms_per_kreport": "ms/kreport", "rss_peak_mb": "MB",
	"ack_ratio": "ratio", "complete_ratio": "ratio",

	"packet.encode_ns_per_report": "ns", "packet.bytes_per_report": "B",
	"ingest.decode_ns_per_report": "ns", "ingest.json_decode_ns_per_report": "ns", "ingest.allocs_per_report": "count",
	"store.append_us_per_delivery": "us", "store.sync_us_p50": "us", "store.sync_us_p99": "us",
	"store.syncs_per_kreport": "count", "store.bytes_per_report": "B",
	"e2e.ack_p50_ms": "ms", "e2e.ack_p99_ms": "ms", "e2e.read_p50_ms": "ms", "e2e.read_p95_ms": "ms",
	"sink.commit_us_per_delivery": "us", "sink.edge_self_us_per_delivery": "us", "sink.reports_rejected": "count",
	"online.ingest_ns_per_report": "ns", "online.flagged_ratio": "ratio", "online.backlog_dropped": "count",
	"online.drain_us_per_state": "us", "online.states_per_drain": "count",
	"nnls.diagnose_us_per_state": "us", "nnls.speedup_all_cores": "ratio", "nnls.iter_cap_ratio": "ratio", "nnls.kkt_rel_p99": "ratio",
	"bus.publish_us_per_event": "us", "bus.events_per_drain": "count", "bus.journal_evictions": "count",
	"cluster.route_self_us_per_delivery": "us", "cluster.fanout_per_delivery": "count",
	"cluster.deliveries_held": "count", "cluster.hold_drops": "count", "cluster.merge_ms": "ms", "cluster.fleet_self_ms": "ms",
	"reporter.records_per_frame": "count", "reporter.retries": "count", "reporter.redials": "count", "reporter.spill_hwm": "count",
	"share.packet": "ratio", "share.sink": "ratio", "share.ingest": "ratio", "share.store": "ratio",
	"share.online": "ratio", "share.nnls": "ratio", "share.bus": "ratio", "share.cluster": "ratio",
	"harness.sched_late_p99_ms": "ms", "harness.offered_rps": "1/s", "harness.trace_overhead_ratio": "ratio",
}

// e2eNames and layerNames are the metrics a run prints with -trace 0 and
// -trace 1.
var (
	e2eNames = []string{"setup_s", "fresh_p50_ms", "fresh_p95_ms",
		"cpu_ms_per_kreport", "rss_peak_mb", "ack_ratio", "complete_ratio"}
	layerNames = func() []string {
		var out []string
		for k := range units {
			if strings.Contains(k, ".") {
				out = append(out, k)
			}
		}
		return out
	}()
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "steady | incident | fleet")
	seed := flag.Int64("seed", 1, "workload seed: fixtures are a pure function of it")
	seconds := flag.Int("seconds", 24, "measured seconds, split over the run's repetitions")
	traced := flag.Int("trace", 0, "1 = print the per-layer metrics of a traced in-process replay")
	bin := flag.String("vn2", ".bench_build/vn2", "vn2 binary under test")
	work := flag.String("workdir", ".bench_build", "scratch directory for fixtures, WALs and traces")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *name)
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: vn2 binary:", err)
		return 2
	}
	runDir, err := filepath.Abs(filepath.Join(*work, "runs", fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A closed stdout or stderr must not kill the process before it has
	// cleaned up.
	signal.Ignore(syscall.SIGPIPE)
	removeStaleRuns(filepath.Dir(runDir))
	abort := func(code int) {
		abortAll()
		// The main goroutine may still be writing into runDir; retry.
		for i := 0; i < 5; i++ {
			os.RemoveAll(runDir)
			time.Sleep(20 * time.Millisecond)
		}
		os.Exit(code)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		abort(130)
	}()
	timer := time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run deadline exceeded")
		abort(1)
	})
	defer timer.Stop()
	defer os.RemoveAll(runDir)
	defer killAll()

	// The measured time is split over the repetitions.
	epochs := int(time.Duration(*seconds) * time.Second / reps / w.Period)
	res, err := measure(w, *seed, fullScale, epochs, *traced == 1, *bin, *work, runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	return 0
}

// measure builds the fixtures and reference, runs the out-of-process
// repetitions and, when traced, the in-process replays; it returns the
// result line.
func measure(w Workload, seed int64, sc Scale, epochs int, traced bool, bin, work, runDir string) (*result, error) {
	began := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s done at %.1fs\n", name, time.Since(began).Seconds())
	}
	f, err := buildFixture(w, seed, sc, epochs, filepath.Join(work, "fixtures"))
	if err != nil {
		return nil, err
	}
	phase("fixtures")
	ref, err := buildReference(f)
	if err != nil {
		return nil, err
	}
	phase("reference")
	// Fixture generation and training leave a large heap; collect it now so
	// the load generator's GC does not compete with the SUT while measuring.
	runtime.GC()
	debug.FreeOSMemory()
	e2e, err := runE2E(context.Background(), bin, runDir, f, ref)
	if err != nil {
		return nil, err
	}
	phase("e2e run")
	printProvenance(f, ref, e2e.flags, runDir)

	values := e2e.metrics
	names := e2eNames
	if traced {
		layer, spans, err := runTraced(f, ref, filepath.Join(runDir, "inproc"))
		if err != nil {
			return nil, err
		}
		for k, v := range e2e.counters {
			layer[k] = v
		}
		values, names = layer, layerNames
		phase("traced run")
		writeSpans(filepath.Join(work, "traces", fmt.Sprintf("%s-%d.json", w.Name, seed)), spans)
	}
	res := &result{Correct: len(e2e.problems) == 0, Attempted: e2e.attempted, Failed: e2e.failed, Metrics: map[string]metric{}}
	for _, p := range e2e.problems {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", p)
	}
	for _, n := range names {
		v, ok := values[n]
		if !ok || math.IsNaN(v) { // a layer that produced no sample
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", n)
			res.Correct = false
			v = 0
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	if res.Attempted < 1 {
		res.Correct, res.Attempted = false, 1
	}
	return res, nil
}

// removeStaleRuns deletes run directories (named <workload>-<seed>-<pid>)
// whose process is gone: a run killed outright cannot clean up after
// itself, and its WAL must not linger into the next.
func removeStaleRuns(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		i := strings.LastIndexByte(e.Name(), '-')
		if i < 0 {
			continue
		}
		if _, err := os.Stat("/proc/" + e.Name()[i+1:]); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// printProvenance records what a result was measured on: the seed, the
// fixture digests, the SUT flags, the epoch period and the host.
func printProvenance(f *Fixture, ref *Reference, flags []string, runDir string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	prov := map[string]any{
		"workload": f.W.Name, "seed": f.Seed, "digests": f.Digests,
		"epochs": len(f.Epochs), "first_epoch": f.FirstEpoch, "reports": f.Reports,
		"flagged": ref.Stats.Flagged, "flagged_epochs": len(ref.Epochs),
		"epoch_period_ms": ms(f.W.Period), "poll_period_ms": ms(pollPeriod), "sut_flags": flags,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpu, "wal_fs": fsType(runDir), "transport": "loopback TCP",
	}
	b, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(b))
}

// fsType names the filesystem holding dir (where the SUT's WAL lives).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xef53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func writeSpans(path string, spans []span) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	b, err := json.Marshal(spans)
	if err == nil {
		_ = os.WriteFile(path, b, 0o644)
	}
}
