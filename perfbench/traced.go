package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"github.com/wsn-tools/vn2/internal/nnls"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink"
	"github.com/wsn-tools/vn2/vn2/sink/bus"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// layers are the modules the traced run attributes time to; a span's layer
// is its name up to the first dot.
var layers = []string{"packet", "sink", "ingest", "store", "online", "nnls", "bus", "cluster"}

// span is one timed call into a layer. Parent is the index of the span
// whose interval it belongs to, or -1 for a root.
type span struct {
	Name     string        `json:"name"`
	Parent   int           `json:"parent"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Estimate bool          `json:"estimate,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory. Its clock excludes the time spent in
// estimates: calls re-run off the path, right after the call they split and
// on the same inputs, to measure work that happens inside a program call the
// harness cannot split, such as the WAL append inside a sink commit or the
// NNLS solve inside a drain. An estimate becomes a child of the span it
// splits, so the parent's self time is its duration minus the estimate. A disabled tracer records nothing and
// runs no estimates.
type tracer struct {
	on       bool
	base     time.Time
	excluded time.Duration
	spans    []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.base) - t.excluded }

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = t.now()
	}
}

// aside runs fn off the clock and returns its duration.
func (t *tracer) aside(fn func()) time.Duration {
	if !t.on {
		return 0
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	t.excluded += d
	return d
}

// estimate runs fn off the clock and records it as a child of parent.
func (t *tracer) estimate(name string, parent int, fn func()) time.Duration {
	if !t.on {
		return 0
	}
	d := t.aside(fn)
	t.attach(name, parent, d)
	return d
}

// attach records an estimate of duration d as a child of parent.
func (t *tracer) attach(name string, parent int, d time.Duration) {
	at := t.now()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: at, End: at + d, Estimate: true})
}

// selfTimes returns every span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// sum adds up the duration (or self time) of every span with this name.
func (t *tracer) sum(name string, self []time.Duration) (total time.Duration, n int) {
	for i, s := range t.spans {
		if s.Name == name {
			if self != nil {
				total += self[i]
			} else {
				total += s.dur()
			}
			n++
		}
	}
	return total, n
}

func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// shares attributes every root span's time to layers by self time; the
// shares sum to 1 over the traced total.
func (t *tracer) shares() map[string]float64 {
	self := t.selfTimes()
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for i, s := range t.spans {
		byLayer[layerOf(s.Name)] += self[i]
		if s.Parent < 0 {
			total += s.dur()
		}
	}
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return out
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// replayer drives the workload in-process through each layer's public
// API: gateway encoders, sink.Server handlers (commit, IngestQueued,
// DrainTick), and on the fleet a cluster.Router whose shard traffic is
// dispatched straight into the shard handlers.
type replayer struct {
	f   *Fixture
	ref *Reference
	tr  *tracer

	shards   []*sink.Server
	handlers []http.Handler
	router   *cluster.Router
	routerH  http.Handler
	parent   int // span the next shard call belongs to

	// Estimate-side replicas of the work inside a sink commit.
	estDec  *ingest.BinaryDecoder
	estEnc  *packet.FrameEncoder
	estJnl  *store.Journal
	estBus  *bus.Bus
	estSub  *bus.Sub
	walDir  string
	fetched [][]byte // shard /epochs bodies captured during a fleet read

	// Counts.
	reports, binReports, jsonReports, commits int
	bytes                                     int
	allocs                                    uint64
	drains, drained, events                   int
	seqNs, parNs                              time.Duration
	merges                                    []float64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func newReplayer(f *Fixture, ref *Reference, dir string, tr *tracer) (*replayer, error) {
	r := &replayer{f: f, ref: ref, tr: tr, parent: -1, walDir: filepath.Join(dir, "estimate-wal")}
	model := filepath.Join(dir, "model.json")
	calib := filepath.Join(dir, "calibrate.csv")
	shards := 1
	if f.W.Fleet {
		shards = 2
	}
	for i := 0; i < shards; i++ {
		srv, err := sink.New(sink.Options{
			ModelPath: model, CalibratePath: calib,
			WALPath:    filepath.Join(dir, fmt.Sprintf("wal%d", i)),
			DrainEvery: f.W.drainInterval(),
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.shards = append(r.shards, srv)
		r.handlers = append(r.handlers, srv.Handler())
	}
	if f.W.Fleet {
		var urls []string
		for i := range r.shards {
			urls = append(urls, "http://shard"+strconv.Itoa(i))
		}
		rt, err := cluster.NewRouter(cluster.Config{Shards: urls, Client: &http.Client{Transport: shardTransport{r}}})
		if err != nil {
			r.close()
			return nil, err
		}
		r.router, r.routerH = rt, rt.Handler()
	}
	if tr.on {
		jnl, err := store.OpenJournal(r.walDir, nil)
		if err != nil {
			r.close()
			return nil, err
		}
		r.estJnl = jnl
		r.estDec = ingest.NewBinaryDecoder()
		r.estEnc = packet.NewFrameEncoder()
		r.estBus = bus.New(0)
		r.estSub = r.estBus.Subscribe(1 << 16)
	}
	return r, nil
}

func (r *replayer) close() {
	for _, s := range r.shards {
		s.CloseWAL()
	}
	if r.estJnl != nil {
		r.estJnl.Close()
	}
}

// serve dispatches one request into an in-process handler.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// commit runs one ingest request on shard i inside a sink.commit span,
// with estimates of the decode and WAL work it contains.
func (r *replayer) commit(i int, path string, body []byte) *httptest.ResponseRecorder {
	id := r.tr.begin("sink.commit", r.parent)
	rec := serve(r.handlers[i], http.MethodPost, path, body)
	if r.tr.on {
		r.estimateCommit(id, path, body)
	}
	r.tr.end(id)
	r.commits++
	return rec
}

func (r *replayer) estimateCommit(id int, path string, body []byte) {
	var recs []trace.Record
	var a0, a1 uint64
	r.tr.aside(func() { a0 = heapAllocs() })
	if path == "/report/bin" {
		r.tr.estimate("ingest.decode", id, func() { recs, _ = r.estDec.Decode(body) })
	} else {
		r.tr.estimate("ingest.json_decode", id, func() { recs, _ = ingest.Decode(body) })
	}
	r.tr.aside(func() { a1 = heapAllocs() })
	r.allocs += a1 - a0
	r.tr.estimate("store.append", id, func() {
		if path == "/report/bin" {
			r.estEnc.Reset()
			for _, rec := range recs {
				r.estEnc.AddFull(rec.Node, rec.Epoch, rec.Vector)
			}
			frame, _ := r.estEnc.Frame()
			r.estJnl.AppendBatch(frame)
			return
		}
		for _, rec := range recs {
			r.estJnl.AppendRecord(rec)
		}
	})
	r.tr.estimate("store.sync", id, func() { r.estJnl.Sync() })
}

// shardTransport carries the in-process router's shard traffic straight
// into the shard handlers, each call a span under the router's.
type shardTransport struct{ r *replayer }

func (t shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.r
	i, err := strconv.Atoi(strings.TrimPrefix(req.URL.Host, "shard"))
	if err != nil || i < 0 || i >= len(r.handlers) {
		return nil, fmt.Errorf("unknown shard %q", req.URL.Host)
	}
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	var rec *httptest.ResponseRecorder
	if req.Method == http.MethodPost {
		rec = r.commit(i, req.URL.Path, body)
	} else {
		id := r.tr.begin("sink.epochs", r.parent)
		rec = serve(r.handlers[i], req.Method, req.URL.Path, body)
		r.tr.end(id)
		if r.tr.on && req.URL.Path == "/epochs" {
			r.fetched = append(r.fetched, rec.Body.Bytes())
		}
	}
	return rec.Result(), nil
}

// run replays the whole schedule unpaced and returns its wall time (off
// the tracer's clock).
func (r *replayer) run() (time.Duration, error) {
	enc := packet.NewFrameEncoder()
	readsDone := 0
	start := r.tr.now()
	if !r.tr.on {
		start = 0
	}
	began := time.Now()
	lastDrain := 0
	for i, ep := range r.f.Epochs {
		js, bin := r.f.gateways(ep)
		for off := 0; off < max(len(js), len(bin)); off += batchRecords {
			if off < len(js) {
				chunk := js[off:min(off+batchRecords, len(js))]
				id := r.tr.begin("packet.encode", -1)
				body, err := json.Marshal(chunk)
				r.tr.end(id)
				if err != nil {
					return 0, err
				}
				if err := r.deliver("/report", body, len(chunk)); err != nil {
					return 0, err
				}
				r.jsonReports += len(chunk)
			}
			if off < len(bin) {
				chunk := bin[off:min(off+batchRecords, len(bin))]
				id := r.tr.begin("packet.encode", -1)
				frame, err := encodeFrame(enc, chunk, false)
				body := append([]byte(nil), frame...)
				r.tr.end(id)
				if err != nil {
					return 0, err
				}
				if err := r.deliver("/report/bin", body, len(chunk)); err != nil {
					return 0, err
				}
				r.binReports += len(chunk)
			}
		}
		// Drain at the e2e run's cadence: after the epochs whose due time
		// crosses a drain tick.
		if int(float64(i+1)/drainPeriods) > int(float64(i)/drainPeriods) || i == len(r.f.Epochs)-1 {
			r.drain(lastDrain, i+1)
			lastDrain = i + 1
		}
		// Reads keep the e2e run's ratio of polls to epochs.
		for due := int(time.Duration(i+1) * r.f.W.Period / pollPeriod); readsDone < due; readsDone++ {
			if err := r.read(); err != nil {
				return 0, err
			}
		}
	}
	if r.tr.on {
		return r.tr.now() - start, nil
	}
	return time.Since(began), nil
}

// deliver sends one gateway delivery: through the router on the fleet,
// straight into the sink otherwise; then the shards ingest their queues.
func (r *replayer) deliver(path string, body []byte, n int) error {
	r.reports += n
	r.bytes += len(body)
	var rec *httptest.ResponseRecorder
	if r.router != nil {
		id := r.tr.begin("cluster.route", -1)
		r.parent = id
		rec = serve(r.routerH, http.MethodPost, path, body)
		r.parent = -1
		r.tr.end(id)
	} else {
		rec = r.commit(0, path, body)
	}
	if rec.Code != http.StatusAccepted {
		return fmt.Errorf("in-process %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	for _, s := range r.shards {
		id := r.tr.begin("online.ingest", -1)
		s.IngestQueued()
		r.tr.end(id)
	}
	return nil
}

// drain runs one DrainTick per shard; the states it diagnoses are the
// reference's flagged states of schedule epochs [from, to).
func (r *replayer) drain(from, to int) {
	pending := make([][]trace.StateVector, len(r.shards))
	for _, states := range r.ref.Flagged[from:to] {
		for _, st := range states {
			i := 0
			if r.router != nil {
				i = r.router.Ring().Owner(st.Node)
			}
			pending[i] = append(pending[i], st)
		}
	}
	for i, s := range r.shards {
		id := r.tr.begin("online.drain", -1)
		s.DrainTick()
		if r.tr.on && len(pending[i]) > 0 {
			r.estimateDrain(id, pending[i])
		}
		r.tr.end(id)
	}
}

func (r *replayer) estimateDrain(id int, states []trace.StateVector) {
	model := r.f.Model
	solve := func() { model.DiagnoseBatch(states, vn2.DiagnoseConfig{Workers: -1}) }
	// The faster of two re-solves: a single one runs a few percent slow
	// against the drain's own and would push the drain's self time
	// negative.
	par := min(r.tr.aside(solve), r.tr.aside(solve))
	r.tr.attach("nnls.diagnose", id, par)
	// Sequential solves on every other drain give the all-cores speed-up.
	if r.drains%2 == 0 {
		r.seqNs += r.tr.aside(func() { model.DiagnoseBatch(states, vn2.DiagnoseConfig{Workers: 0}) })
		r.parNs += par
	}
	var epochs []int
	seen := map[int]bool{}
	for _, st := range states {
		if !seen[st.Epoch] {
			seen[st.Epoch] = true
			epochs = append(epochs, st.Epoch)
		}
	}
	r.tr.estimate("bus.publish", id, func() {
		for _, e := range epochs {
			ec := r.ref.Epochs[e]
			causes := map[string]float64{}
			for j, v := range ec.Distribution {
				if v > 0 {
					causes["psi"+strconv.Itoa(j)] = v
				}
			}
			r.estBus.Publish("EpochDiagnosed", 1, map[string]any{"epoch": e, "states": ec.States, "causes": causes})
		}
		r.estBus.Publish("DriftStats", 1, online.DriftStats{})
		for {
			if _, ok := r.estSub.TryNext(); !ok {
				break
			}
		}
	})
	r.drains++
	r.drained += len(states)
	r.events += len(epochs) + 1
}

// read is one read-path poll: GET /fleet through the router, or GET
// /epochs on the single sink.
func (r *replayer) read() error {
	if r.router == nil {
		id := r.tr.begin("sink.epochs", -1)
		rec := serve(r.handlers[0], http.MethodGet, "/epochs", nil)
		r.tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process /epochs: status %d", rec.Code)
		}
		return nil
	}
	r.fetched = r.fetched[:0]
	id := r.tr.begin("cluster.fleet", -1)
	r.parent = id
	rec := serve(r.routerH, http.MethodGet, "/fleet", nil)
	r.parent = -1
	r.tr.end(id)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process /fleet: status %d", rec.Code)
	}
	if r.tr.on {
		var parts [][]online.EpochState
		rank := 0
		r.tr.aside(func() {
			for _, b := range r.fetched {
				var se struct {
					Rank   int                 `json:"rank"`
					Epochs []online.EpochState `json:"epochs"`
				}
				if json.Unmarshal(b, &se) == nil {
					parts = append(parts, se.Epochs)
					rank = se.Rank
				}
			}
		})
		d := r.tr.aside(func() { cluster.MergeEpochs(rank, parts...) })
		r.merges = append(r.merges, ms(d))
	}
	return nil
}

// retained reads the final retained view and counts epochs that differ
// from the reference.
func (r *replayer) retained() (int, error) {
	var rec *httptest.ResponseRecorder
	if r.router != nil {
		rec = serve(r.routerH, http.MethodGet, "/fleet", nil)
	} else {
		rec = serve(r.handlers[0], http.MethodGet, "/diagnosis", nil)
	}
	var v fleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return 0, err
	}
	if len(v.Epochs) == 0 {
		return 0, fmt.Errorf("in-process replay retained no epochs")
	}
	return newTracker(r.ref).checkRetained(v.Epochs), nil
}

// replayOnce builds a fresh in-process SUT under dir and replays the
// schedule, returning the replayer (closed) and its wall time.
func replayOnce(f *Fixture, ref *Reference, dir string, traced bool) (*replayer, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	for name, b := range map[string][]byte{"model.json": f.ModelJSON, "calibrate.csv": f.CalibCSV} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return nil, 0, err
		}
	}
	r, err := newReplayer(f, ref, dir, newTracer(traced))
	if err != nil {
		return nil, 0, err
	}
	defer r.close()
	wall, err := r.run()
	if err != nil {
		return nil, 0, err
	}
	bad, err := r.retained()
	if err != nil {
		return nil, 0, err
	}
	if bad > 0 {
		return nil, 0, fmt.Errorf("in-process replay: %d retained epochs differ from the reference", bad)
	}
	return r, wall, nil
}

// runTraced replays the schedule in-process twice, untraced then traced,
// and derives the per-layer metrics from the traced run's spans.
func runTraced(f *Fixture, ref *Reference, dir string) (map[string]float64, []span, error) {
	_, plain, err := replayOnce(f, ref, filepath.Join(dir, "untraced"), false)
	if err != nil {
		return nil, nil, err
	}
	r, wall, err := replayOnce(f, ref, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, nil, err
	}
	tr := r.tr
	self := tr.selfTimes()
	m := map[string]float64{}
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		return ratio(float64(d)/float64(unit), float64(n))
	}

	enc, _ := tr.sum("packet.encode", nil)
	m["packet.encode_ns_per_report"] = per(enc, r.reports, time.Nanosecond)
	m["packet.bytes_per_report"] = ratio(float64(r.bytes), float64(r.reports))

	dec, _ := tr.sum("ingest.decode", nil)
	jdec, _ := tr.sum("ingest.json_decode", nil)
	// Sink-side decodes: on the fleet the shards decode the router's
	// re-encoded frames and JSON bodies, one record per report.
	m["ingest.decode_ns_per_report"] = per(dec, r.binReports, time.Nanosecond)
	m["ingest.json_decode_ns_per_report"] = per(jdec, r.jsonReports, time.Nanosecond)
	m["ingest.allocs_per_report"] = ratio(float64(r.allocs), float64(r.reports))

	app, _ := tr.sum("store.append", nil)
	m["store.append_us_per_delivery"] = per(app, r.commits, time.Microsecond)
	syncs := tr.durations("store.sync")
	m["store.syncs_per_kreport"] = ratio(float64(len(syncs)), float64(r.reports)/1000)
	m["store.sync_us_p50"] = median(syncs)
	m["store.sync_us_p99"] = quantile(syncs, 0.99)
	m["store.bytes_per_report"] = ratio(float64(dirBytes(r.walDir)), float64(r.reports))

	commit, commits := tr.sum("sink.commit", nil)
	commitSelf, _ := tr.sum("sink.commit", self)
	m["sink.commit_us_per_delivery"] = per(commit, commits, time.Microsecond)
	m["sink.edge_self_us_per_delivery"] = per(commitSelf, commits, time.Microsecond)

	ing, _ := tr.sum("online.ingest", nil)
	m["online.ingest_ns_per_report"] = per(ing, r.reports, time.Nanosecond)
	drainSelf, _ := tr.sum("online.drain", self)
	m["online.drain_us_per_state"] = per(drainSelf, r.drained, time.Microsecond)
	m["online.states_per_drain"] = ratio(float64(r.drained), float64(r.drains))

	diag, _ := tr.sum("nnls.diagnose", nil)
	m["nnls.diagnose_us_per_state"] = per(diag, r.drained, time.Microsecond)
	m["nnls.speedup_all_cores"] = ratio(float64(r.seqNs), float64(r.parNs))
	m["nnls.iter_cap_ratio"], m["nnls.kkt_rel_p99"] = solverQuality(f.Model, ref)

	pub, _ := tr.sum("bus.publish", nil)
	m["bus.publish_us_per_event"] = per(pub, r.events, time.Microsecond)
	m["bus.events_per_drain"] = ratio(float64(r.events), float64(r.drains))

	routeSelf, routes := tr.sum("cluster.route", self)
	m["cluster.route_self_us_per_delivery"] = per(routeSelf, routes, time.Microsecond)
	m["cluster.fanout_per_delivery"] = 0
	if routes > 0 {
		m["cluster.fanout_per_delivery"] = ratio(float64(commits), float64(routes))
	}
	fleetSelf, fleets := tr.sum("cluster.fleet", self)
	m["cluster.fleet_self_ms"] = per(fleetSelf, fleets, time.Millisecond)
	m["cluster.merge_ms"] = 0
	if len(r.merges) > 0 {
		m["cluster.merge_ms"] = median(r.merges)
	}

	for l, v := range tr.shares() {
		m["share."+l] = v
	}
	m["harness.trace_overhead_ratio"] = ratio(float64(wall), float64(plain))
	return m, tr.spans, nil
}

// solverQuality re-solves a sample of the reference's flagged states with
// nnls.Solve to report how often the iteration cap binds and the p99
// relative KKT violation of the returned weights: for
// min ‖s − wΨ‖² s.t. w ≥ 0 with gradient g = wΨΨᵀ − sΨᵀ, a weight w_j > 0
// needs g_j = 0 and w_j = 0 needs g_j ≥ 0; the violation is scaled by
// max|sΨᵀ|.
func solverQuality(model *vn2.Model, ref *Reference) (capRatio, kktP99 float64) {
	var states []trace.StateVector
	for _, ep := range ref.Flagged {
		states = append(states, ep...)
	}
	const sample = 256
	step := max(len(states)/sample, 1)
	psi := model.Psi
	rank, m := psi.Dims()
	const maxIter = 500 // nnls.Config default
	var capped int
	var rel []float64
	for i := 0; i < len(states); i += step {
		s := make([]float64, m)
		for k, v := range states[i].Delta {
			s[k] = math.Abs(v) / model.Scale[k]
		}
		res, err := nnls.Solve(s, psi, nnls.Config{})
		if err != nil {
			continue
		}
		if res.Iterations >= maxIter {
			capped++
		}
		b := make([]float64, rank)
		fit := make([]float64, m) // wΨ
		for j := 0; j < rank; j++ {
			for k := 0; k < m; k++ {
				b[j] += psi.At(j, k) * s[k]
				fit[k] += res.W[j] * psi.At(j, k)
			}
		}
		var worst, scale float64
		for j := 0; j < rank; j++ {
			var g float64
			for k := 0; k < m; k++ {
				g += fit[k] * psi.At(j, k)
			}
			g -= b[j]
			v := math.Max(0, -g)
			if res.W[j] > 0 {
				v = math.Abs(g)
			}
			worst = math.Max(worst, v)
			scale = math.Max(scale, math.Abs(b[j]))
		}
		rel = append(rel, ratio(worst, scale))
	}
	return ratio(float64(capped), float64(len(rel))), quantile(rel, 0.99)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
