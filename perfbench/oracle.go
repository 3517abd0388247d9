package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
)

// Reference is the in-process oracle: one fault-free monitor with the
// SUT's model and detector that ingests the whole schedule and never
// prunes. Every SUT epoch distribution must match it bit for bit.
type Reference struct {
	Rank int
	// Epochs maps trace epoch → expected states and distribution, for
	// every epoch with at least one flagged state.
	Epochs map[int]online.EpochCauses
	// Flagged holds, per schedule epoch, the flagged states in schedule
	// order — exactly what a drain after that epoch has pending.
	Flagged [][]trace.StateVector
	Stats   online.Stats
}

// newDetector calibrates the exception detector from the calibration CSV
// exactly as vn2 serve -calibrate does.
func newDetector(calibCSV []byte) (*trace.Detector, *trace.Dataset, error) {
	ds, err := trace.ReadCSV(bytes.NewReader(calibCSV))
	if err != nil {
		return nil, nil, err
	}
	det, err := trace.NewDetector(ds.States(), 0)
	return det, ds, err
}

func buildReference(f *Fixture) (*Reference, error) {
	det, cal, err := newDetector(f.CalibCSV)
	if err != nil {
		return nil, fmt.Errorf("reference detector: %w", err)
	}
	mon, err := online.NewMonitor(online.Config{
		Model: f.Model, Detector: det, History: math.MaxInt32, MaxPending: math.MaxInt32, Workers: -1,
	})
	if err != nil {
		return nil, err
	}
	last := map[packet.NodeID][]float64{}
	for _, id := range cal.Nodes() {
		recs := cal.Records(id)
		if err := mon.Warm(recs[len(recs)-1]); err != nil {
			return nil, err
		}
		last[id] = recs[len(recs)-1].Vector
	}
	ref := &Reference{Rank: f.Model.Rank, Epochs: map[int]online.EpochCauses{}, Flagged: make([][]trace.StateVector, len(f.Epochs))}
	for i, ep := range f.Epochs {
		for _, rec := range ep {
			obs, err := mon.Ingest(rec)
			if err != nil {
				return nil, fmt.Errorf("reference ingest node %d epoch %d: %w", rec.Node, rec.Epoch, err)
			}
			if obs.Flagged {
				delta := make([]float64, len(rec.Vector))
				for k, v := range rec.Vector {
					delta[k] = v - last[rec.Node][k]
				}
				ref.Flagged[i] = append(ref.Flagged[i], trace.StateVector{Node: rec.Node, Epoch: rec.Epoch, Gap: obs.Gap, Delta: delta})
			}
			last[rec.Node] = rec.Vector
		}
		if (i+1)%32 == 0 {
			if _, err := mon.Drain(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := mon.Drain(); err != nil {
		return nil, err
	}
	sum := mon.Snapshot()
	for _, ec := range sum.Epochs {
		if ec.States > 0 {
			ref.Epochs[ec.Epoch] = ec
		}
	}
	ref.Stats = sum.Stats
	if ref.Stats.Dropped != 0 {
		return nil, fmt.Errorf("reference monitor dropped %d states", ref.Stats.Dropped)
	}
	return ref, nil
}

// sameDist reports bit-exact equality of two cause distributions.
func sameDist(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// namedDist turns the stream's named-cause map back into a positional
// distribution (absent causes are zero, as the sink omits them).
func namedDist(causes map[string]float64, rank int) ([]float64, error) {
	d := make([]float64, rank)
	for name, v := range causes {
		var j int
		if _, err := fmt.Sscanf(name, "psi%d", &j); err != nil || j < 0 || j >= rank {
			return nil, fmt.Errorf("unknown cause %q", name)
		}
		d[j] = v
	}
	return d, nil
}

// Tracker follows which reference epochs the SUT has shown complete: state
// count reached and distribution bit-identical.
type Tracker struct {
	ref      *Reference
	doneAt   map[int]time.Time // epoch → when it was first seen complete
	mismatch map[int]bool      // complete epochs whose distribution differed
	over     map[int]bool      // epochs that showed more states than the reference
}

func newTracker(ref *Reference) *Tracker {
	return &Tracker{ref: ref, doneAt: map[int]time.Time{}, mismatch: map[int]bool{}, over: map[int]bool{}}
}

// observe records one view of an epoch, seen at time t.
func (tk *Tracker) observe(epoch, states int, dist []float64, t time.Time) {
	want, ok := tk.ref.Epochs[epoch]
	if !ok {
		if states > 0 {
			tk.over[epoch] = true
		}
		return
	}
	switch {
	case states > want.States:
		tk.over[epoch] = true
	case states == want.States:
		if _, seen := tk.doneAt[epoch]; !seen {
			tk.doneAt[epoch] = t
		}
		if !sameDist(dist, want.Distribution) {
			tk.mismatch[epoch] = true
		}
	}
}

// pending counts reference epochs not yet seen complete.
func (tk *Tracker) pending() int { return len(tk.ref.Epochs) - len(tk.doneAt) }

// misses counts reference epochs never seen complete, or seen with a
// wrong distribution, plus epochs that showed states the reference lacks.
func (tk *Tracker) misses() int {
	n := len(tk.mismatch) + len(tk.over)
	for e := range tk.ref.Epochs {
		if _, ok := tk.doneAt[e]; !ok && !tk.mismatch[e] {
			n++
		}
	}
	return n
}

// checkRetained compares the SUT's retained window (final /diagnosis or
// /fleet epochs) against the reference, returning how many epochs differ.
// Epochs outside the reference must not appear with states.
func (tk *Tracker) checkRetained(got []online.EpochCauses) int {
	bad := 0
	for _, ec := range got {
		want, ok := tk.ref.Epochs[ec.Epoch]
		if !ok {
			if ec.States > 0 {
				bad++
			}
			continue
		}
		if ec.States != want.States || !sameDist(ec.Distribution, want.Distribution) {
			bad++
			tk.mismatch[ec.Epoch] = true
		}
	}
	return bad
}
