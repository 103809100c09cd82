package main

import (
	"testing"
	"time"
)

func TestParseHostCPU(t *testing.T) {
	stat := "cpu  60442 7 5499 2114052 170 3 803 5295 11 0\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 1\n"
	h, err := parseHostCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (11) is already inside user time and is not added again.
	want := hostCPU{Total: 60442 + 7 + 5499 + 2114052 + 170 + 3 + 803 + 5295, Steal: 5295}
	if h != want {
		t.Errorf("parseHostCPU = %+v, want %+v", h, want)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 4 5 6 7 x 9\n"} {
		if _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q) accepted", bad)
		}
	}
}

func TestStealShare(t *testing.T) {
	a := hostCPU{Total: 1000, Steal: 10}
	b := hostCPU{Total: 1200, Steal: 60}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", got)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("no elapsed time: stealShare = %v, want 0", got)
	}
}

func TestParseProcCPU(t *testing.T) {
	// Fields 14 and 15 are utime and stime; the command name holds
	// spaces and parentheses.
	stat := "4242 (tdc (serve) x) S 1 4242 4242 0 -1 4194560 1009 0 0 0 150 25 0 0 20 0 7 0 123 456 789\n"
	got, err := parseProcCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 175 * 10 * time.Millisecond; got != want {
		t.Errorf("parseProcCPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 tdc S 1", "4242 (tdc) S 1 2 3", "4242 (tdc) S 1 2 3 4 5 6 7 8 9 10 x 0"} {
		if _, err := parseProcCPU(bad); err == nil {
			t.Errorf("parseProcCPU(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\ttdc\nVmPeak:\t  900 kB\nVmHWM:\t   45420 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 45420*1024 {
		t.Errorf("parseVmHWM = %d", got)
	}
	for _, bad := range []string{"Name:\ttdc\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}
