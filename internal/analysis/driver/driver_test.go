package driver_test

import (
	"path/filepath"
	"strings"
	"testing"

	"temporaldoc/internal/analysis"
	"temporaldoc/internal/analysis/analyzers"
	"temporaldoc/internal/analysis/driver"
	"temporaldoc/internal/analysis/load"
)

// loadFixture loads the drvfix module once per test.
func loadFixture(t *testing.T) *load.Result {
	t.Helper()
	res, err := load.Packages(filepath.Join("testdata", "src"), "./...")
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	return res
}

func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{analyzers.Determinism()}
}

func countByCheck(findings []driver.Finding) map[string]int {
	out := map[string]int{}
	for _, f := range findings {
		out[f.Check]++
	}
	return out
}

// TestSuppressions: the fixture seeds five rand.Int() findings — one
// unsuppressed, one suppressed on the same line, one from the line
// above, one behind a malformed (reason-less) directive, and two more
// in a file-ignore'd file. Only the unsuppressed one and the one behind
// the malformed directive survive, plus the malformed directive itself.
func TestSuppressions(t *testing.T) {
	res := loadFixture(t)
	findings, err := driver.Run(res, suite(), driver.Options{})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	got := countByCheck(findings)
	if got["determinism"] != 2 {
		t.Errorf("determinism findings = %d, want 2 (suppressions must swallow same-line, line-above and file-wide)\n%s",
			got["determinism"], render(findings))
	}
	if got["lintdirective"] != 1 {
		t.Errorf("lintdirective findings = %d, want 1 (reason-less directive must be reported)\n%s",
			got["lintdirective"], render(findings))
	}
	for _, f := range findings {
		if strings.Contains(f.RelPath, "fileignore") {
			t.Errorf("file-ignore'd finding leaked: %s", f)
		}
	}
}

// TestExcludes: a path exclude for one check drops its findings but
// leaves other checks' findings on the same files alone.
func TestExcludes(t *testing.T) {
	res := loadFixture(t)
	findings, err := driver.Run(res, suite(), driver.Options{
		Exclude: map[string][]string{"determinism": {"suppress/"}},
	})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	got := countByCheck(findings)
	if got["determinism"] != 0 {
		t.Errorf("excluded determinism findings survived:\n%s", render(findings))
	}
	if got["lintdirective"] != 1 {
		t.Errorf("lintdirective findings = %d, want 1 (excludes are per-check)", got["lintdirective"])
	}
}

// TestChecksFilter: unknown check names are a hard error, and a named
// subset runs only those analyzers.
func TestChecksFilter(t *testing.T) {
	res := loadFixture(t)
	if _, err := driver.Run(res, suite(), driver.Options{Checks: []string{"nope"}}); err == nil {
		t.Error("unknown check name must error")
	}
	findings, err := driver.Run(res, []*analysis.Analyzer{analyzers.Determinism(), analyzers.FloatCmp()},
		driver.Options{Checks: []string{"floatcmp"}})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	for _, f := range findings {
		if f.Check == "determinism" {
			t.Errorf("unselected analyzer ran: %s", f)
		}
	}
}

// TestStaleSuppression: a directive naming a check outside the suite
// is itself a lintdirective finding. Names are validated against the
// whole suite, so a directive for a check that -checks left out of the
// run stays quiet.
func TestStaleSuppression(t *testing.T) {
	res, err := load.Packages(filepath.Join("testdata", "stale"), "./...")
	if err != nil {
		t.Fatalf("loading stale fixture: %v", err)
	}
	findings, err := driver.Run(res, []*analysis.Analyzer{analyzers.Determinism(), analyzers.FloatCmp()},
		driver.Options{Checks: []string{"floatcmp"}})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if len(findings) != 1 || findings[0].Check != "lintdirective" || !strings.Contains(findings[0].Message, `"nosuchcheck"`) {
		t.Errorf("want exactly one lintdirective finding naming nosuchcheck, got:\n%s", render(findings))
	}
}

func render(findings []driver.Finding) string {
	var sb strings.Builder
	for _, f := range findings {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
