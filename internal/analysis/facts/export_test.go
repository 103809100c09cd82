package facts

// Sealed returns the sealed blob of pkgPath (nil when never sealed), so
// tests can pin the serialized form.
func (s *Store) Sealed(pkgPath string) []byte { return s.sealed[pkgPath] }
