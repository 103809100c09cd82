package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"temporaldoc/internal/experiments"
	"temporaldoc/internal/featsel"
)

// workloadFiles are the checked-in workload specs, one JSON file each.
//
//go:embed workloads/*.json
var workloadFiles embed.FS

// workloadSpec is one workload: what the program is fed (Data) and how
// the load is offered (Rate), in the shape of a request-generator
// config. The run seed given on the command line is the only other
// input; the program itself only ever sees generated SGML, the snapshot
// and request bodies.
type workloadSpec struct {
	Name string   `json:"name"`
	Why  string   `json:"why"`
	Data dataSpec `json:"data"`
	Rate rateSpec `json:"rate"`
}

// dataSpec fixes the model and the documents.
type dataSpec struct {
	// Profile, Scale and TrainSeed fix the trained model: the
	// experiments profile (trained with featureMethod), the corpus scale
	// and the corpus/model seed. They are part of the workload, not of
	// the run, so every run trains the same model; the run seed only
	// varies the SGML rendering noise and the request documents.
	Profile   string  `json:"profile"`
	Scale     float64 `json:"scale"`
	TrainSeed int64   `json:"train_seed"`
	// TrainReps is the number of core.Train calls a run makes; 0 means
	// as many as fit in the measured window, at least minTrainReps.
	TrainReps int `json:"train_reps"`
	// Pool names the request documents: "test-split" (the training
	// corpus's own test split) or "heldout" (a corpus generated at
	// heldoutScale with seed PoolSeedOffset + run seed). A workload with
	// a held-out pool ends its serving with the evaluation pass.
	Pool           string `json:"pool"`
	PoolSeedOffset int64  `json:"pool_seed_offset,omitempty"`
	// HotSet, when positive, makes requests cycle through that many
	// pool documents picked by the run seed; zero sends the pool in
	// order.
	HotSet int `json:"hot_set"`
}

// rateSpec fixes how requests are offered.
type rateSpec struct {
	// Loop is "closed": each connection sends its next request when the
	// previous reply has arrived.
	Loop string `json:"loop"`
	// Connections is the number of keep-alive connections of the one
	// client process, capped at the host's CPU count.
	Connections int `json:"connections"`
	// WarmupRequests are sent before the measured window.
	WarmupRequests int `json:"warmup_requests"`
}

// What every workload shares.
const (
	// featureMethod is the feature selection of the trained model: the
	// quick profile's DF configuration.
	featureMethod = featsel.DF
	// heldoutScale sizes a held-out request pool: 2365 documents, more
	// than the encode cache holds.
	heldoutScale = 0.25
	// evalScale and evalSeed fix the 567 labelled documents of the
	// untimed evaluation pass through the server (macro_f1).
	evalScale = 0.06
	evalSeed  = 2007
	// subWindow splits a served workload's measured window; each
	// serving metric is taken per sub-window and the run reports the
	// median over them.
	subWindow = time.Second
)

const minTrainReps = 3

// loadSpecs parses every embedded workload spec, keyed by name.
func loadSpecs() (map[string]workloadSpec, error) {
	entries, err := workloadFiles.ReadDir("workloads")
	if err != nil {
		return nil, err
	}
	specs := make(map[string]workloadSpec, len(entries))
	for _, e := range entries {
		b, err := workloadFiles.ReadFile("workloads/" + e.Name())
		if err != nil {
			return nil, err
		}
		var s workloadSpec
		dec := json.NewDecoder(strings.NewReader(string(b)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("workload %s: %w", e.Name(), err)
		}
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", e.Name(), err)
		}
		if e.Name() != s.Name+".json" {
			return nil, fmt.Errorf("workload %s: file must be named %s.json", e.Name(), s.Name)
		}
		specs[s.Name] = s
	}
	return specs, nil
}

func specNames(specs map[string]workloadSpec) []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s workloadSpec) validate() error {
	d, r := s.Data, s.Rate
	switch {
	case s.Name == "" || s.Why == "" || strings.Contains(s.Why, "\n"):
		return fmt.Errorf("needs a name and a one-line why")
	case d.Profile != "quick":
		return fmt.Errorf("profile %q: only the quick profile fits a run", d.Profile)
	case d.Scale <= 0 || d.TrainReps < 0:
		return fmt.Errorf("scale must be positive and train_reps non-negative")
	case d.Pool != "test-split" && d.Pool != "heldout":
		return fmt.Errorf("pool %q: want test-split or heldout", d.Pool)
	case d.HotSet < 0:
		return fmt.Errorf("hot_set must be non-negative")
	case r.Loop != "closed":
		return fmt.Errorf("loop %q: only closed loops are defined", r.Loop)
	case r.Connections < 1 || r.WarmupRequests < 0:
		return fmt.Errorf("needs connections >= 1 and warmup_requests >= 0")
	}
	return nil
}

// connections caps the spec's connection count at the CPU count, so the
// client never offers more parallelism than the host can run.
func (r rateSpec) connections() int {
	if n := runtime.NumCPU(); r.Connections > n {
		return n
	}
	return r.Connections
}

// profile is the experiments profile the workload trains with.
func (d dataSpec) profile() experiments.Profile {
	p := experiments.QuickProfile()
	p.Scale = d.Scale
	p.Seed = d.TrainSeed
	return p
}
