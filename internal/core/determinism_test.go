package core

import (
	"bytes"
	"runtime"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
)

// persistedAt trains the small corpus under the given GOMAXPROCS and
// returns the saved model. GOMAXPROCS sets how many word maps train at
// once, how many machines each GP tournament fans out over and how many
// categories run in parallel.
func persistedAt(t *testing.T, c *corpus.Corpus, procs int) []byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	cfg := fastConfig(featsel.DF)
	cfg.GP.Tournaments = 40
	m, err := Train(cfg, c)
	if err != nil {
		t.Fatalf("Train(GOMAXPROCS=%d): %v", procs, err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save(GOMAXPROCS=%d): %v", procs, err)
	}
	return buf.Bytes()
}

// TestTrainDeterministicAcrossWorkers trains the same corpus with one
// worker (GOMAXPROCS 1: the serial GP and word-map paths) and with 4
// and the host's full parallelism, and requires the persisted models to
// be byte-identical: the parallel evaluation engine must not change a
// single bit of any trained program, threshold or SOM weight.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	c := smallCorpus(t)
	want := persistedAt(t, c, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := persistedAt(t, c, workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: persisted model differs from the serial run", workers)
		}
	}
}

// TestTrainDeterministicAcrossGOMAXPROCS retrains with identical seeds
// under different GOMAXPROCS settings — twice per setting, so repeated
// runs on the same schedule are covered too — and requires every
// persisted model to be byte-identical. Scheduler pressure must not
// reorder a single float accumulation into the model; this is the
// dynamic half of the contract tdlint's determinism analyzer checks
// statically.
func TestTrainDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("retrains the pipeline several times")
	}
	c := smallCorpus(t)
	settings := []int{1, 2}
	if prev := runtime.GOMAXPROCS(0); prev > 2 {
		settings = append(settings, prev)
	}
	var want []byte
	for _, procs := range settings {
		for run := 0; run < 2; run++ {
			got := persistedAt(t, c, procs)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d run=%d: persisted model differs from the first run", procs, run)
			}
		}
	}
}
