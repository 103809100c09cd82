// Package exppath tells which code path math.Exp takes in this process,
// for tests that pin trained bits to recorded digests.
//
// On amd64, math.Exp fuses multiply-adds when the CPU has FMA and
// rounds some results differently without it (GODEBUG=cpu.fma=off
// selects that path), so such digests are recorded once per path.
// Other architectures may also fuse multiply-adds in compiled code,
// so no recorded digest applies there.
package exppath

import (
	"math"
	"runtime"
)

// Path returns "fma" or "no-fma", read from the bits of one value the
// two amd64 paths round differently, or "" off amd64 or when the bits
// match neither path.
func Path() string {
	if runtime.GOARCH != "amd64" {
		return ""
	}
	switch math.Float64bits(math.Exp(-30.0 / 997)) {
	case 0x3fef0d2c15501397:
		return "fma"
	case 0x3fef0d2c15501396:
		return "no-fma"
	}
	return ""
}
