package exppath

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestPathFollowsGODEBUG checks that the probe tells the paths apart:
// with GODEBUG=cpu.fma=off, amd64 must report the path without FMA.
func TestPathFollowsGODEBUG(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if p := Path(); p != "" {
			t.Fatalf("Path() = %q off amd64, want \"\"", p)
		}
		return
	}
	p := Path()
	if p == "" {
		t.Fatal("math.Exp bits match neither recorded amd64 path")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") && p != "no-fma" {
		t.Errorf("Path() = %q under GODEBUG=cpu.fma=off, want no-fma", p)
	}
}
