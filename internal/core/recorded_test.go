package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/experiments"
	"temporaldoc/internal/featsel"
)

var smoke struct {
	once   sync.Once
	corpus *corpus.Corpus
	err    error
	mu     sync.Mutex
	models map[featsel.Method]*core.Model
}

// smokeModel trains (once per method) the model `tdc train -profile
// smoke -method <method>` writes.
func smokeModel(t *testing.T, method featsel.Method) *core.Model {
	t.Helper()
	p := experiments.SmokeProfile()
	smoke.once.Do(func() { smoke.corpus, smoke.err = p.Corpus() })
	if smoke.err != nil {
		t.Fatalf("smoke corpus: %v", smoke.err)
	}
	smoke.mu.Lock()
	defer smoke.mu.Unlock()
	if m := smoke.models[method]; m != nil {
		return m
	}
	m, err := core.Train(p.CoreConfig(method), smoke.corpus)
	if err != nil {
		t.Fatalf("Train(%s): %v", method, err)
	}
	if smoke.models == nil {
		smoke.models = make(map[featsel.Method]*core.Model)
	}
	smoke.models[method] = m
	return m
}

// TestSmokeSnapshotsRecorded is the byte-identical snapshot wall: the
// smoke-profile model under each feature selection must save to the
// sha256 recorded before training memoised tournament evaluation and
// neighbourhood weights. Performance work on training must leave every
// byte in place.
//
// A change that moves the trained model on purpose (a new training
// rule, a different profile, a snapshot format change) must update
// these digests and explain why in its change record. The digests are
// platform arithmetic: other architectures may fuse multiply-adds, so
// the test runs on amd64 only.
func TestSmokeSnapshotsRecorded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were recorded on amd64")
	}
	if testing.Short() {
		t.Skip("trains the smoke profile four times")
	}
	want := map[featsel.Method]string{
		featsel.DF:    "107a894205c060d2bada28121da16eaf1f5722a78bf600c731078183f9a5cb75",
		featsel.IG:    "f6d0dda94a098fbaa262abbcba57a08f545578f85fe78da0f5c3e850c837fcdd",
		featsel.MI:    "320e3eec5d77babfa502bc52b72abf6c197cc3994cabfa2fdad20a323863b1b4",
		featsel.Nouns: "67c5a1967a8d815fd3c97bff9df113b04f88ebdbd97d9ec5e2a643b8084c456e",
	}
	for _, method := range []featsel.Method{featsel.DF, featsel.IG, featsel.MI, featsel.Nouns} {
		var buf bytes.Buffer
		if err := smokeModel(t, method).Save(&buf); err != nil {
			t.Fatalf("Save(%s): %v", method, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[method] {
			t.Errorf("%s: snapshot sha256 %s, recorded %s", method, got, want[method])
		}
	}
}
