//go:build race

package core_test

// The race detector multiplies the cost of encoding; tests that only
// measure single-goroutine memory skip under it.
func init() { raceDetector = true }
