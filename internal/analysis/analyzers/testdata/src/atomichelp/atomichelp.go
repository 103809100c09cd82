// Package atomichelp seeds atomic-managed state in a *different*
// package, so the atomicsafe fixture exercises the field registry
// across a package boundary through sealed blobs.
package atomichelp

import "sync/atomic"

// Legacy manages a plain int64 through sync/atomic package functions —
// the pre-Go-1.19 style. Registration happens here, in the declaring
// package.
type Legacy struct {
	N int64
}

// Bump is the atomic write that marks N as atomically managed.
func (l *Legacy) Bump() {
	atomic.AddInt64(&l.N, 1)
}
