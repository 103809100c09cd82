package analyzers_test

import (
	"testing"

	"temporaldoc/internal/analysis/analysistest"
	"temporaldoc/internal/analysis/analyzers"
)

const testdata = "testdata"

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, testdata, analyzers.Determinism(), "tdfix/determinism")
}

func TestFloatCmp(t *testing.T) {
	analysistest.Run(t, testdata, analyzers.FloatCmp(), "tdfix/floatcmp")
}

func TestTelemetrySafe(t *testing.T) {
	// The analyzer is anchored to the fixture's stand-in telemetry
	// package, exactly as cmd/tdlint anchors it to the real one.
	analysistest.Run(t, testdata, analyzers.TelemetrySafe("tdfix/telemetry"), "tdfix/telemetrysafe")
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, testdata, analyzers.ErrDrop(), "tdfix/errdrop")
}

func TestExhaustive(t *testing.T) {
	analysistest.Run(t, testdata, analyzers.Exhaustive(), "tdfix/exhaustive")
}

func TestPurity(t *testing.T) {
	// Entry points configured the way cmd/tdlint configures the real
	// training paths; the fixture's cross-package chain goes through
	// tdfix/purityhelp's sealed facts.
	analysistest.Run(t, testdata,
		analyzers.Purity([]string{"purity.Train", "purity.Encode"}, nil),
		"tdfix/purity")
}

func TestSeedflow(t *testing.T) {
	// Entry points configured the way cmd/tdlint configures the real
	// training paths; the fixture's cross-package chain goes through
	// tdfix/seedflowhelp's sealed facts.
	analysistest.Run(t, testdata,
		analyzers.Seedflow([]string{"seedflow.Train"}),
		"tdfix/seedflow")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, testdata, analyzers.HotAlloc(), "tdfix/hotalloc")
}

func TestAtomicSafe(t *testing.T) {
	// The cross-package case reads tdfix/atomichelp's sealed field
	// registry.
	analysistest.Run(t, testdata, analyzers.AtomicSafe(), "tdfix/atomicsafe")
}
