// Package stale holds one suppression naming a check outside the suite
// and one naming a suite check that the driver test leaves out of its
// -checks subset.
package stale

import "math/rand"

func stale() int {
	//lint:ignore nosuchcheck fixture: names a check outside the suite
	return 2
}

func unselected() int {
	//lint:ignore determinism fixture: a suite check the run does not select
	return rand.Int()
}
