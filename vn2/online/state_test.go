package online

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// TestIngestRejectsNonFinite: NaN/±Inf reports are stopped at the boundary
// with the typed error, counted as invalid, and never become states.
func TestIngestRejectsNonFinite(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := r.calm(1, 10)
		rec.Vector[5] = bad
		if _, err := m.Ingest(rec); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("ingest %v: err = %v, want ErrNonFinite", bad, err)
		}
		if err := m.Warm(rec); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("warm %v: err = %v, want ErrNonFinite", bad, err)
		}
	}
	st := m.Stats()
	if st.Invalid != 3 || st.FirstReports != 0 {
		t.Fatalf("stats = %+v, want 3 invalid and no accepted reports", st)
	}
}

// TestDuplicateAcrossGap: a retransmission of an OLDER epoch (not the
// node's last) is stale, not a duplicate — only the last report dedups.
func TestDuplicateAcrossGap(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	old := r.calm(1, 10)
	if _, err := m.Ingest(old); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(r.calm(1, 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(old); !errors.Is(err, ErrStaleReport) {
		t.Fatalf("old retransmission err = %v, want ErrStaleReport", err)
	}
}

// TestStateRoundTrip: State → JSON → Restore onto a fresh monitor
// reproduces the rolling state exactly, including the flagged backlog, and
// the restored monitor keeps streaming from where the original stopped.
func TestStateRoundTrip(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	for node := packet.NodeID(1); node <= 4; node++ {
		if err := m.Warm(r.calm(node, 30)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Ingest(r.hot(node, 31)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := drain(t, m); err != nil {
		t.Fatal(err)
	}
	// Leave two states pending so the backlog round-trips too.
	for node := packet.NodeID(1); node <= 2; node++ {
		if _, err := m.Ingest(r.hot(node, 32)); err != nil {
			t.Fatal(err)
		}
	}

	st := m.State()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var st2 MonitorState
	if err := json.Unmarshal(b, &st2); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	m2 := newTestMonitor(t, Config{})
	if err := m2.Restore(st2); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	if got, want := m2.Stats(), m.Stats(); got != want {
		t.Fatalf("restored stats %+v != %+v", got, want)
	}
	if m2.Pending() != m.Pending() {
		t.Fatalf("restored pending %d != %d", m2.Pending(), m.Pending())
	}
	s1, s2 := m.Snapshot(), m2.Snapshot()
	if !reflect.DeepEqual(s1.Epochs, s2.Epochs) {
		t.Fatalf("restored epoch distributions differ:\n%+v\n%+v", s1.Epochs, s2.Epochs)
	}
	if !reflect.DeepEqual(s1.Recent, s2.Recent) {
		t.Fatal("restored recent ring differs")
	}

	// Both monitors process the same continuation identically.
	for _, mm := range []*Monitor{m, m2} {
		if _, err := mm.Ingest(r.hot(3, 33)); err != nil {
			t.Fatal(err)
		}
		if _, err := drain(t, mm); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 = m.Snapshot(), m2.Snapshot()
	if !reflect.DeepEqual(s1.Epochs, s2.Epochs) {
		t.Fatal("continuation after restore diverged")
	}
	// A retransmission of the last pre-export report dedups on the restored
	// monitor too — the diff slots made it across.
	if obs, err := m2.Ingest(r.hot(4, 31)); err != nil || !obs.Duplicate {
		t.Fatalf("retransmission after restore: obs=%+v err=%v", obs, err)
	}
}

// TestRestoreValidates rejects states whose vectors disagree with the
// detector's metric count.
func TestRestoreValidates(t *testing.T) {
	m := newTestMonitor(t, Config{})
	if err := m.Restore(MonitorState{Nodes: []NodeState{{Node: 1, Epoch: 1, Vector: []float64{1, 2}}}}); !errors.Is(err, ErrBadState) {
		t.Fatalf("short node vector err = %v, want ErrBadState", err)
	}
	if err := m.Restore(MonitorState{Pending: []PendingState{{State: trace.StateVector{Node: 1, Epoch: 1, Delta: []float64{1}}}}}); !errors.Is(err, ErrBadState) {
		t.Fatalf("short pending delta err = %v, want ErrBadState", err)
	}
}

// TestEpochDistributionDrainOrderInvariant is the exactness keystone of the
// chaos harness: the same set of diagnosed states must produce bit-identical
// per-epoch distributions no matter how drains grouped them or in what
// order the states arrived.
func TestEpochDistributionDrainOrderInvariant(t *testing.T) {
	r := newRig(t)

	feed := func(order []packet.NodeID, drainAfterEach bool) []EpochCauses {
		m := newTestMonitor(t, Config{})
		for _, node := range order {
			if err := m.Warm(r.calm(node, 40)); err != nil {
				t.Fatal(err)
			}
		}
		for _, node := range order {
			if _, err := m.Ingest(r.hot(node, 41)); err != nil {
				t.Fatal(err)
			}
			if drainAfterEach {
				if _, err := drain(t, m); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := drain(t, m); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot().Epochs
	}

	base := feed([]packet.NodeID{1, 2, 3, 4, 5, 6}, false)    // one big drain
	perState := feed([]packet.NodeID{1, 2, 3, 4, 5, 6}, true) // one drain per state
	shuffled := feed([]packet.NodeID{4, 6, 1, 5, 3, 2}, true) // different arrival order
	for name, got := range map[string][]EpochCauses{"per-state drains": perState, "shuffled arrival": shuffled} {
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: distributions diverged from single-drain baseline", name)
		}
	}
}
