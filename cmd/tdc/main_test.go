package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"temporaldoc/internal/experiments"
)

// captureStdout redirects os.Stdout around fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"smoke", "quick", "full"} {
		p, err := experiments.ProfileByName(name, 0, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile name %q", p.Name)
		}
	}
	if _, err := experiments.ProfileByName("bogus", 0, 0); err == nil {
		t.Error("bogus profile accepted")
	}
	p, _ := experiments.ProfileByName("smoke", 42, 0.5)
	if p.Seed != 42 || p.Scale != 0.5 {
		t.Errorf("overrides not applied: %+v", p)
	}
}

func TestMethodByName(t *testing.T) {
	for _, name := range []string{"df", "ig", "mi", "nouns", "chi"} {
		if _, err := methodByName(name); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	_, err := methodByName("tfidf")
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	// The message lists what is accepted, every method included.
	if !strings.Contains(err.Error(), "chi") {
		t.Errorf("unknown-method error %q does not name chi", err)
	}
}

func TestCmdGenerateWritesSGML(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.sgm")
	if err := cmdGenerate([]string{"-scale", "0.004", "-out", out}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<REUTERS") {
		t.Error("output is not SGML")
	}
}

func TestCmdStats(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdStats([]string{"-profile", "smoke", "-scale", "0.004"})
	})
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, want := range []string{"training split", "vocabulary", "overlap"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q", want)
		}
	}
}

func TestCmdStatsFromSGMLFile(t *testing.T) {
	sgm := filepath.Join(t.TempDir(), "c.sgm")
	if err := cmdGenerate([]string{"-scale", "0.004", "-out", sgm}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdStats([]string{"-sgml", sgm})
	}); err != nil {
		t.Fatalf("stats -sgml: %v", err)
	}
}

func TestCmdSizing(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdSizing([]string{"-profile", "smoke", "-scale", "0.004",
			"-epochs", "1", "-candidates", "3x3,5x5"})
	})
	if err != nil {
		t.Fatalf("sizing: %v", err)
	}
	if !strings.Contains(out, "chosen") || !strings.Contains(out, "3x3") {
		t.Errorf("sizing output incomplete:\n%s", out)
	}
	if err := cmdSizing([]string{"-candidates", "nonsense"}); err == nil {
		t.Error("bad candidates accepted")
	}
	if err := cmdSizing([]string{"-candidates", "0x5"}); err == nil {
		t.Error("zero geometry accepted")
	}
}

func TestCmdTrainClassifyRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI training skipped in -short")
	}
	model := filepath.Join(t.TempDir(), "model.json")
	if err := cmdTrain([]string{"-profile", "smoke", "-scale", "0.006", "-out", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	out, err := captureStdout(t, func() error {
		return cmdClassify([]string{"-model", model, "-profile", "smoke",
			"-scale", "0.006", "-limit", "3"})
	})
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if !strings.Contains(out, "predicted=") || !strings.Contains(out, "accuracy") {
		t.Errorf("classify output incomplete:\n%s", out)
	}
}

func TestCmdInspect(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI training skipped in -short")
	}
	model := filepath.Join(t.TempDir(), "model.json")
	if err := cmdTrain([]string{"-profile", "smoke", "-scale", "0.006", "-out", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	out, err := captureStdout(t, func() error {
		return cmdInspect([]string{"-model", model, "-rules"})
	})
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	for _, want := range []string{"ruleLen", "earn", "threshold"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q", want)
		}
	}
	if err := cmdInspect([]string{"-model", "/nonexistent"}); err == nil {
		t.Error("missing model file accepted")
	}
}

func TestCmdRule(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI training skipped in -short")
	}
	out, err := captureStdout(t, func() error {
		return cmdRule([]string{"-profile", "smoke", "-scale", "0.006",
			"-category", "earn", "-method", "df"})
	})
	if err != nil {
		t.Fatalf("rule: %v", err)
	}
	if !strings.Contains(out, "R0") || !strings.Contains(out, "Simplified") {
		t.Errorf("rule output incomplete:\n%s", out)
	}
}

func TestCmdTraceSVG(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI training skipped in -short")
	}
	svg := filepath.Join(t.TempDir(), "trace.svg")
	if _, err := captureStdout(t, func() error {
		return cmdTrace([]string{"-profile", "smoke", "-scale", "0.008",
			"-category", "earn", "-svg", svg})
	}); err != nil {
		t.Fatalf("trace: %v", err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("SVG file malformed")
	}
}
