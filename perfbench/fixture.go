package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2"
)

// epochsPerDay is the CitySee reporting cadence: one report per node every
// ten minutes.
const epochsPerDay = 144

// Scale sizes the replayed deployment. The benchmark runs at fullScale; the
// self-tests shrink it.
type Scale struct {
	Nodes     int // CitySee sensor population
	Days      int // September trace length, days
	TrainDays int // CitySee training trace length, days
	Rank      int // Ψ compression factor r
	CalEpochs int // calibration window, ending just before the replay window
	Tiles     int // fleet population multiplier (disjoint node-ID tiles)
}

var fullScale = Scale{Nodes: 286, Days: 14, TrainDays: 7, Rank: 25, CalEpochs: epochsPerDay, Tiles: 4}

// Workload is one traffic mix.
type Workload struct {
	Name string
	// Incident replays the September failure window; otherwise the replay
	// starts on a quiet day three days before it.
	Incident bool
	// Fleet tiles the population and drives vn2 router in front of two
	// shards; otherwise one sink is fed over the persistent stream.
	Fleet bool
	// Period is the epoch period: epoch i is due at i×Period.
	Period time.Duration
}

const (
	// pollPeriod is the read client's poll period (GET /fleet or GET
	// /epochs).
	pollPeriod = 50 * time.Millisecond
	// drainPeriods is the SUT's -drain-interval in epoch periods. Replay
	// compresses time, and at the default 2 s one drain would span more
	// epochs than the monitor's 64-epoch history, pruning them unseen. It is
	// not a whole number (8 plus the golden-ratio fraction, whose multiples
	// spread most evenly), so over a replay the drain ticks fall at every
	// phase of the epoch clock and freshness does not depend on where in an
	// epoch period the sink happened to start its drain clock.
	drainPeriods = 8.618
)

var workloads = []Workload{
	// Quiet days over the persistent stream: per-report encode, decode,
	// WAL fsync and Monitor.Ingest dominate; NNLS does little.
	{Name: "steady", Period: 28 * time.Millisecond},
	// The Fig. 6 failure window at the same rate: drain, NNLS and the bus
	// dominate, and on 2 cores drains stall ACKs.
	{Name: "incident", Incident: true, Period: 28 * time.Millisecond},
	// The quiet days tiled 4x through vn2 router to two WAL shards via JSON
	// and binary gateways, with /fleet reads: the only router and JSON path.
	// The slower epoch keeps the single gateway connection well below
	// saturation, so a slow spell of the host does not snowball into an
	// open-loop backlog.
	{Name: "fleet", Fleet: true, Period: 200 * time.Millisecond},
}

// drainInterval is the SUT's -drain-interval.
func (w Workload) drainInterval() time.Duration {
	return time.Duration(drainPeriods * float64(w.Period))
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Fixture is everything a run replays, built from the workload seed alone.
type Fixture struct {
	W     Workload
	Seed  int64
	Scale Scale

	ModelJSON []byte
	Model     *vn2.Model
	CalibCSV  []byte
	Calib     *trace.Dataset
	// Epochs is the replay schedule: one slice per epoch, ascending node.
	Epochs  [][]trace.Record
	Reports int
	// FirstEpoch is the trace epoch number of Epochs[0].
	FirstEpoch int

	Digests map[string]string
}

// buildFixture generates the model, calibration CSV and replay schedule for
// one workload and seed. cacheDir, when non-empty, memoizes the trained
// model and the workload's trace slice, which do not depend on the seed.
func buildFixture(w Workload, seed int64, sc Scale, epochs int, cacheDir string) (*Fixture, error) {
	f := &Fixture{W: w, Seed: seed, Scale: sc, Digests: map[string]string{}}
	var err error
	if f.ModelJSON, err = trainedModel(sc, cacheDir); err != nil {
		return nil, err
	}
	if f.Model, err = vn2.Load(bytes.NewReader(f.ModelJSON)); err != nil {
		return nil, fmt.Errorf("reload model: %w", err)
	}

	sl, err := septemberSlice(w, sc, epochs, cacheDir)
	if err != nil {
		return nil, err
	}
	tiles, stride := 1, 0
	if w.Fleet {
		tiles, stride = sc.Tiles, tileStride(sc.Nodes)
	}
	// The seed relabels the population: node i reports as label[i].
	label := rand.New(rand.NewSource(seed)).Perm(sc.Nodes)

	f.FirstEpoch = sl.First
	f.Epochs = make([][]trace.Record, sl.Last-sl.First+1)
	f.Calib = trace.NewDataset()
	for tile := 0; tile < tiles; tile++ {
		for _, rec := range sl.Records {
			rec.Node = packet.NodeID(label[int(rec.Node)-1] + 1 + tile*stride)
			switch {
			case rec.Epoch < sl.First:
				if err := f.Calib.Add(rec); err != nil {
					return nil, err
				}
			default:
				f.Epochs[rec.Epoch-sl.First] = append(f.Epochs[rec.Epoch-sl.First], rec)
				f.Reports++
			}
		}
	}
	for _, ep := range f.Epochs {
		sort.Slice(ep, func(i, j int) bool { return ep[i].Node < ep[j].Node })
	}
	var csv bytes.Buffer
	if err := f.Calib.WriteCSV(&csv); err != nil {
		return nil, err
	}
	f.CalibCSV = csv.Bytes()

	f.Digests["model"] = digest(f.ModelJSON)
	f.Digests["calibration"] = digest(f.CalibCSV)
	f.Digests["trace"] = scheduleDigest(f.Epochs)
	return f, nil
}

// deploymentSeed pins the replayed deployment to vn2 experiment's default
// seed (17): Ψ is trained on its CitySee training trace and the replay
// comes from its September trace (seed 17+1000), the traces behind
// EXPERIMENTS.md. The workload seed relabels the population instead of
// regenerating it: across simulated deployments the detector flags from 1%
// to 25% of the incident window's states, and across Ψ trainings the
// multiplicative solver hits its iteration cap on 55% to 91% of states,
// moving NNLS cost per state by ±15%. Either would make run-to-run spread
// measure different workloads rather than the system.
const deploymentSeed = 17

// slice is the part of the deployment's September trace one workload
// replays: its calibration epochs [CalFirst, First) and replay epochs
// [First, Last], node by node in epoch order.
type slice struct {
	CalFirst, First, Last int
	Records               []trace.Record
}

// septemberSlice generates the deployment's September trace and cuts the
// workload's slice from it: the replay starts at the failure window on
// incident and three days before it otherwise, after CalEpochs of
// calibration. The slice is cached in cacheDir (the whole trace is too
// large to keep).
func septemberSlice(w Workload, sc Scale, epochs int, cacheDir string) (*slice, error) {
	var path string
	if cacheDir != "" {
		path = filepath.Join(cacheDir, fmt.Sprintf("september-s%d-n%d-d%d-c%d-%s-e%d.gob",
			deploymentSeed, sc.Nodes, sc.Days, sc.CalEpochs, w.Name, epochs))
		if fh, err := os.Open(path); err == nil {
			var sl slice
			err := gob.NewDecoder(bufio.NewReader(fh)).Decode(&sl)
			fh.Close()
			if err == nil {
				return &sl, nil
			}
		}
	}
	res, window, err := tracegen.CitySeeSeptember(tracegen.CitySeeOptions{
		Seed: deploymentSeed + 1000, Days: sc.Days, Nodes: sc.Nodes, Workers: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("september trace: %w", err)
	}
	startDay := window.StartDay
	if !w.Incident {
		startDay = max(window.StartDay-3, 1)
	}
	sl := &slice{First: startDay*epochsPerDay + 1}
	sl.Last = min(sl.First+epochs-1, sc.Days*epochsPerDay)
	sl.CalFirst = max(sl.First-sc.CalEpochs, 1)
	if sl.Last < sl.First || sl.CalFirst >= sl.First {
		return nil, fmt.Errorf("replay window [%d,%d] does not fit a %d-day trace", sl.First, sl.Last, sc.Days)
	}
	for _, id := range res.Dataset.Nodes() {
		for _, rec := range res.Dataset.Records(id) {
			if rec.Epoch >= sl.CalFirst && rec.Epoch <= sl.Last {
				sl.Records = append(sl.Records, rec)
			}
		}
	}
	if path != "" {
		var buf bytes.Buffer
		if gob.NewEncoder(&buf).Encode(sl) == nil {
			writeCache(path, buf.Bytes())
		}
	}
	return sl, nil
}

// writeCache writes a cache file atomically; a failed write only costs the
// next run a regeneration.
func writeCache(path string, b []byte) {
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if os.WriteFile(tmp, b, 0o644) == nil {
		_ = os.Rename(tmp, path)
	}
}

// tileStride separates fleet tiles in node-ID space (IDs are 16-bit on
// the wire, so tiles stay well below 65536).
func tileStride(nodes int) int { return (nodes/1000 + 1) * 1000 }

// trainedModel returns the serialized r-rank Ψ trained on the deployment's
// CitySee training trace, from cacheDir when an earlier run left it there.
func trainedModel(sc Scale, cacheDir string) ([]byte, error) {
	const seed = deploymentSeed
	var path string
	if cacheDir != "" {
		path = filepath.Join(cacheDir, fmt.Sprintf("model-s%d-n%d-d%d-r%d.json", seed, sc.Nodes, sc.TrainDays, sc.Rank))
		if b, err := os.ReadFile(path); err == nil {
			return b, nil
		}
	}
	tr, err := tracegen.CitySeeTraining(tracegen.CitySeeOptions{
		Seed: seed, Days: sc.TrainDays, Nodes: sc.Nodes, Workers: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("training trace: %w", err)
	}
	model, _, err := vn2.Train(tr.Dataset.States(), vn2.TrainConfig{Rank: sc.Rank, Seed: seed, Workers: -1})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return nil, err
	}
	if path != "" {
		writeCache(path, buf.Bytes())
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// scheduleDigest hashes the replay schedule bit-exactly: node, epoch and
// every float64's bits, in schedule order.
func scheduleDigest(epochs [][]trace.Record) string {
	h := sha256.New()
	var b [8]byte
	for _, ep := range epochs {
		for _, rec := range ep {
			binary.BigEndian.PutUint64(b[:], uint64(rec.Node)<<32|uint64(uint32(rec.Epoch)))
			h.Write(b[:])
			for _, v := range rec.Vector {
				binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
