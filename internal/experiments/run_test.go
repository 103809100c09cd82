package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"temporaldoc/internal/core"
)

// TestRunTrainsEachSelectionOnce runs every table and figure that uses a
// ProSys model on one run, in benchtables' order, and checks two things:
// the run trains one model per feature selection (four encoder_ready
// events), and sharing models changes no output, since each formatted
// output equals that of a fresh run used for it alone.
func TestRunTrainsEachSelectionOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen smoke trainings skipped in -short")
	}
	c := profileCorpus(t)
	var encoders atomic.Int64
	p := testProfile
	p.Observer = core.ObserverFunc(func(e core.TrainEvent) {
		if e.Kind == core.EventEncoderReady {
			encoders.Add(1)
		}
	})
	shared := NewRun(p, c)

	table := func(t *F1Table, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return t.Format(), nil
	}
	trace := func(tr *TraceResult, err error) (string, error) {
		if err != nil {
			return "", err
		}
		var b strings.Builder
		if err := TraceChart("trace", tr).WriteSVG(&b); err != nil {
			return "", err
		}
		return FormatTrace("trace", tr) + b.String(), nil
	}
	outputs := []struct {
		name string
		run  func(*Run) (string, error)
	}{
		{"table 1", func(r *Run) (string, error) {
			rows, err := r.Table1()
			return FormatTable1(rows), err
		}},
		{"table 4", func(r *Run) (string, error) { return table(r.Table4()) }},
		{"table 5", func(r *Run) (string, error) { return table(r.Table5()) }},
		{"table 6", func(r *Run) (string, error) { return table(r.Table6()) }},
		{"temporal table", func(r *Run) (string, error) { return table(r.TableTemporal()) }},
		{"figure 3", func(r *Run) (string, error) { return r.Figure3("earn") }},
		{"figure 5", func(r *Run) (string, error) { return trace(r.Figure5("earn")) }},
		{"figure 6", func(r *Run) (string, error) { return trace(r.Figure6()) }},
		{"significance", func(r *Run) (string, error) { return r.Significance() }},
		{"confusion", func(r *Run) (string, error) {
			cm, err := r.Confusion()
			if err != nil {
				return "", err
			}
			return cm.Format(), nil
		}},
	}
	for _, o := range outputs {
		got, err := o.run(shared)
		if err != nil {
			t.Fatalf("%s on the shared run: %v", o.name, err)
		}
		want, err := o.run(NewRun(testProfile, c))
		if err != nil {
			t.Fatalf("%s on a fresh run: %v", o.name, err)
		}
		if got != want {
			t.Errorf("%s differs between the shared run and a fresh one:\n%s\nfresh:\n%s", o.name, got, want)
		}
	}
	if n := encoders.Load(); n != 4 {
		t.Errorf("the shared run trained %d encoders, want 4 (one per feature selection)", n)
	}
}
