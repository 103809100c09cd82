package som

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	m := mustNew(t, baseCfg())
	inputs := [][]float64{{0.1, 0.2}, {0.8, 0.9}, {0.4, 0.5}}
	if err := m.Train(inputs); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	m2, err := FromSnapshot(back)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	for u := 0; u < m.Units(); u++ {
		if !reflect.DeepEqual(m.Weights(u), m2.Weights(u)) {
			t.Fatalf("unit %d weights differ", u)
		}
	}
	if !reflect.DeepEqual(m.AWC(), m2.AWC()) {
		t.Error("AWC differs")
	}
	for _, x := range inputs {
		if m.BMU(x) != m2.BMU(x) {
			t.Fatalf("BMU differs for %v", x)
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	m := mustNew(t, baseCfg())
	snap := m.Snapshot()
	snap.Weights[0][0] = 999
	if m.Weights(0)[0] == 999 {
		t.Error("snapshot aliases map weights")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	m := mustNew(t, baseCfg())
	good := m.Snapshot()

	bad := good
	bad.Weights = good.Weights[:3]
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("short weights accepted")
	}

	bad = good
	bad.Weights = make([][]float64, len(good.Weights))
	for i := range bad.Weights {
		bad.Weights[i] = []float64{1} // wrong dim
	}
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("wrong-dimension weights accepted")
	}

	// A corrupt Dim must be rejected before anything is sized from it.
	bad = good
	bad.Config.Dim = 1 << 40
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("huge dimension accepted")
	}

	bad = good
	bad.Config.Width = 0
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("invalid config accepted")
	}
}
