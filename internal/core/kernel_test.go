package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestSetKernelInvalidatesEncodeCache checks a kernel switch cannot
// serve encodings produced under the previous kernel.
func TestSetKernelInvalidatesEncodeCache(t *testing.T) {
	m, c := trainedModel(t)
	defer func() {
		if err := m.SetKernel(""); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := m.Classify(&c.Test[0]); err != nil {
		t.Fatal(err)
	}
	m.encMu.RLock()
	warm := len(m.encCache)
	m.encMu.RUnlock()
	if warm == 0 {
		t.Fatal("classification did not populate the encode cache")
	}
	if err := m.SetKernel("float32"); err != nil {
		t.Fatal(err)
	}
	m.encMu.RLock()
	after := len(m.encCache)
	m.encMu.RUnlock()
	if after != 0 {
		t.Fatalf("encode cache kept %d entries across a kernel switch", after)
	}
	if err := m.SetKernel("bogus"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel")
	}
}

// TestSnapshotUnchangedByKernel checks the kernel is a pure runtime
// knob: a model saved under float32 serialises to exactly the bytes it
// does under the default, and a load→save round trip reproduces the
// original bytes (snapshot files stay valid across this PR).
func TestSnapshotUnchangedByKernel(t *testing.T) {
	m, _ := trainedModel(t)
	defer func() {
		if err := m.SetKernel(""); err != nil {
			t.Fatal(err)
		}
	}()
	var base bytes.Buffer
	if err := m.Save(&base); err != nil {
		t.Fatal(err)
	}
	if err := m.SetKernel("float32"); err != nil {
		t.Fatal(err)
	}
	var f32 bytes.Buffer
	if err := m.Save(&f32); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Bytes(), f32.Bytes()) {
		t.Fatal("kernel choice leaked into the persisted snapshot")
	}
	loaded, err := Load(bytes.NewReader(base.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Kernel(); got != "float64" {
		t.Fatalf("loaded model kernel = %q, want the default", got)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Bytes(), resaved.Bytes()) {
		t.Fatal("save → load → save changed snapshot bytes")
	}
}

// TestFloat32KernelAccuracy is the accuracy gate on the opt-in float32
// kernel: over the synthetic test split, its macro-F1 may differ from
// float64 by at most 0.02. The bound is deliberately loose — the
// float32 sweep only ever flips BMUs whose top-2 distances agree within
// float32 noise, which perturbs a handful of borderline word codes, not
// whole documents — but it is a hard gate: a kernel bug that corrupts
// scores wholesale moves macro-F1 far beyond it.
func TestFloat32KernelAccuracy(t *testing.T) {
	m, c := trainedModel(t)
	defer func() {
		if err := m.SetKernel(""); err != nil {
			t.Fatal(err)
		}
	}()
	if err := m.SetKernel("float64"); err != nil {
		t.Fatal(err)
	}
	base, err := m.Evaluate(c.Test)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetKernel("float32"); err != nil {
		t.Fatal(err)
	}
	f32, err := m.Evaluate(c.Test)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 0.02
	delta := math.Abs(base.MacroF1() - f32.MacroF1())
	if delta > bound {
		t.Fatalf("float32 macro-F1 %v vs float64 %v: |delta| %v exceeds %v",
			f32.MacroF1(), base.MacroF1(), delta, bound)
	}
	// Determinism: the float32 kernel must evaluate identically twice.
	again, err := m.Evaluate(c.Test)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f32.Pooled(), again.Pooled()) {
		t.Fatal("float32 evaluation is nondeterministic")
	}
}
