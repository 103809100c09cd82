// Fixture for the atomicsafe analyzer: plain accesses to atomic-managed
// fields — declared atomic.* types and sync/atomic-managed plain
// fields, same-package and imported.
package atomicsafe

import (
	"sync/atomic"

	"tdfix/atomichelp"
)

// counter mixes a declared atomic field with a plain field managed via
// sync/atomic package functions.
type counter struct {
	n    int64
	hits atomic.Int64
}

// bump registers n as atomically managed and uses hits correctly.
func bump(c *counter) {
	atomic.AddInt64(&c.n, 1)
	c.hits.Add(1)
}

func readPlain(c *counter) int64 {
	return c.n // want "plain read of atomicsafe.counter.n"
}

func writePlain(c *counter) {
	c.n = 0 // want "plain write of atomicsafe.counter.n"
}

func resetAtomic(c *counter) {
	c.hits = atomic.Int64{} // want "plain write of atomic field atomicsafe.counter.hits"
}

func readAtomic(c *counter) int64 {
	return c.hits.Load() // allowed: the atomic API
}

// legacyPlainRead mixes access models across the package boundary: N is
// registered as sync/atomic-managed by its declaring package.
func legacyPlainRead(l *atomichelp.Legacy) int64 {
	return l.N // want "plain read of atomichelp.Legacy.N"
}
