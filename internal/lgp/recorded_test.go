package lgp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"temporaldoc/internal/exppath"
)

// resultDigest is the sha256 of every bit a run produces: the
// tournament-best trajectory, the page-size schedule, the selected
// program and its full-set fitness.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, f := range res.BestHistory {
		put(math.Float64bits(f))
	}
	for _, ps := range res.PageSizeHistory {
		put(uint64(ps))
	}
	for _, in := range res.Best.Code {
		put(uint64(in))
	}
	put(math.Float64bits(res.Fitness))
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunRecordedBits pins small training runs to digests recorded
// before tournament evaluation was memoised, so any change to what the
// trainer evaluates, reuses or draws shows up as a digest change. The
// table covers DSS with several reselections, DSS off, tournaments of
// four and of two (where the second child overwrites the winner before
// the difficulty update), the F1 objective, stratified subsets and the
// non-recurrent ablation. Each case runs serially and on three workers.
//
// The digests are platform arithmetic. math.Exp rounds some values
// differently with and without FMA, so amd64 has one set per exp path
// (see exppath); elsewhere the test skips. Only the non-recurrent case
// differs between the two paths. A change that moves the trajectory on
// purpose must re-record both sets and say why.
func TestRunRecordedBits(t *testing.T) {
	path := exppath.Path()
	if path == "" {
		t.Skip("no digests recorded for this platform's exp")
	}
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"dss", func(c *Config) {}, "98c1dd20b5e6b76e150d65f2e1ad06972a318e4c964d5bb11b774455ab45da70"},
		{"no-dss", func(c *Config) { c.DSS = nil }, "e10b67bc63db4401beb82a03de36e449ff2da345e159a19b6c86ae735a46dee9"},
		{"tournament-2", func(c *Config) { c.TournamentSize = 2 }, "c7e729b8e4f7aeafe1b334ce1b0ba68412493fd6fb1a89fceb87743a12c210f8"},
		{"tournament-2-no-dss", func(c *Config) { c.TournamentSize = 2; c.DSS = nil }, "433aa7da421816cbd57fd48523f534f9972fbe508ae2833be686002bb1eb1246"},
		{"f1", func(c *Config) { c.Fitness = FitnessF1 }, "9e53ff20dc95bc57a4e3858beca8916f767a455eea817fb1ef5ec26fd36ab258"},
		{"stratify", func(c *Config) { c.DSS.Stratify = true }, "84a136b8e0000fa54a99c5fac3f4c2e4d7710f291bdca2f4c7d0d8dd035a49a5"},
		{"non-recurrent", func(c *Config) { c.Recurrent = false }, "dd06e30c53d37c7fbfe6791c7518ea2a95a900b5aeea560a46c41c3096ab90c9"},
	}
	// The digests without FMA, where they differ.
	noFMA := map[string]string{
		"non-recurrent": "a8dbc26925d5d5b6f0b01f8aa0ae45bcc847012ac31b82d7383be53a1dcb78c1",
	}
	examples := benchExamples(36, 10, 5)
	for i := range examples {
		// One in three in class, so stratified quotas differ from the
		// unstratified draw.
		examples[i].Label = -1
		if i%3 == 0 {
			examples[i].Label = 1
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				cfg := DefaultConfig()
				cfg.PopulationSize = 20
				cfg.Tournaments = 150
				cfg.MaxPages = 4
				cfg.DSS = &DSSConfig{SubsetSize: 14, Interval: 25}
				cfg.Seed = 17
				tc.edit(&cfg)
				cfg.Workers = workers
				tr, err := NewTrainer(cfg, examples)
				if err != nil {
					t.Fatal(err)
				}
				want := tc.want
				if d, ok := noFMA[tc.name]; ok && path == "no-fma" {
					want = d
				}
				if got := resultDigest(tr.Run()); got != want {
					t.Errorf("workers=%d: digest %s, recorded %s (%s exp)", workers, got, want, path)
				}
			}
		})
	}
}
