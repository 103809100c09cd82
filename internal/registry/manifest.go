// Package registry is the multi-tenant model store behind `tdc serve`:
// a file-backed, versioned catalog of persisted model snapshots plus an
// LRU cache of resident (loaded) models with single-flight loading.
//
// On-disk layout, one directory per published version:
//
//	<root>/<model>/<version>/snapshot.bin    the core.Model.Save bytes
//	<root>/<model>/<version>/manifest.json   identity + integrity record
//
// A root may also be a single snapshot file (`tdc serve -model`): the
// registry then serves it as the one-entry catalog default/current,
// loaded at Open and re-read by every Scan.
//
// Three invariants hold the layout together:
//
//   - Atomic publish. A version is written into a dot-prefixed temp
//     directory next to its destination and renamed into place, so a
//     scan never observes a half-written version: either the rename
//     happened and both files are complete, or the directory name
//     starts with "." and the scan ignores it. Published versions are
//     immutable — republishing an existing (model, version) fails.
//   - Skipped, never fatal. A corrupt manifest, a missing or
//     size-mismatched snapshot.bin, or a crashed publish's leftover
//     temp directory makes that one version invisible (counted in
//     registry.scan.skipped / registry.scan.tempdirs); the rest of the
//     catalog keeps serving.
//   - Pin-once serving. Acquire hands out immutable *Snapshot values;
//     eviction from the resident LRU only drops the registry's own
//     reference, so a request that pinned a snapshot keeps a fully
//     valid model for its whole lifetime — evicted-while-serving is
//     impossible by construction.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
)

const (
	// manifestName and snapshotName are the two files of a published
	// version directory.
	manifestName = "manifest.json"
	snapshotName = "snapshot.bin"

	// maxNameLen bounds model and version names; the character set below
	// keeps them safe as single path segments on every platform.
	maxNameLen = 64

	// maxManifestBytes bounds how much of a manifest.json the decoder
	// will read — a manifest is a few hundred bytes, so anything bigger
	// is garbage (or hostile) and must not be slurped into memory.
	maxManifestBytes = 64 << 10

	// tempPrefix marks in-progress publish directories. Scans skip every
	// dot-prefixed entry, so the prefix only has to start with ".".
	tempPrefix = ".tmp-"
)

// Manifest is the identity record published next to every snapshot.
// Model and Version duplicate the directory names on purpose: a
// manifest that disagrees with where it sits was copied or tampered
// with, and the scan skips it.
type Manifest struct {
	Model   string `json:"model"`
	Version string `json:"version"`
	// SHA256 is the hex digest of snapshot.bin's exact bytes; Bytes its
	// size. The size is checked at scan time (one stat), the digest at
	// load time (core.LoadFile hashes what it read anyway).
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
	// FeatureMethod mirrors the snapshot header; the loaded model must
	// agree or the load fails.
	FeatureMethod string `json:"feature_method"`
	// Kernel, when set, overrides the registry's default encode kernel
	// for this version (runtime-only, like serve's -kernel).
	Kernel string `json:"kernel,omitempty"`
	// CreatedAt orders versions: the latest version of a model is the
	// one with the greatest (CreatedAt, Version) pair.
	CreatedAt time.Time `json:"created_at"`
}

// ValidateName reports whether s can be a model or version name: 1..64
// characters from [a-zA-Z0-9._-], not starting with a dot. The charset
// excludes path separators and the leading-dot rule excludes ".", ".."
// and collisions with publish temp directories, so a valid name is
// always a safe single path segment — path traversal is rejected here,
// before any filesystem call sees the name.
func ValidateName(s string) error {
	if s == "" {
		return errors.New("registry: empty name")
	}
	if len(s) > maxNameLen {
		return fmt.Errorf("registry: name longer than %d bytes", maxNameLen)
	}
	if s[0] == '.' {
		return fmt.Errorf("registry: name %q starts with a dot", s)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("registry: name %q contains %q (allowed: [a-zA-Z0-9._-])", s, c)
		}
	}
	return nil
}

// Validate checks a decoded manifest's internal consistency. It does
// not touch the filesystem — callers additionally check the manifest
// agrees with the directory it sits in and the snapshot beside it.
func (m *Manifest) Validate() error {
	if err := ValidateName(m.Model); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := ValidateName(m.Version); err != nil {
		return fmt.Errorf("version: %w", err)
	}
	if len(m.SHA256) != 64 {
		return fmt.Errorf("registry: sha256 %q is not 64 hex characters", m.SHA256)
	}
	for i := 0; i < len(m.SHA256); i++ {
		c := m.SHA256[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("registry: sha256 %q is not lowercase hex", m.SHA256)
		}
	}
	if m.Bytes <= 0 {
		return fmt.Errorf("registry: snapshot size %d must be positive", m.Bytes)
	}
	if !featsel.Known(featsel.Method(m.FeatureMethod)) {
		return fmt.Errorf("registry: unknown feature method %q", m.FeatureMethod)
	}
	if _, err := hsom.ParseKernel(m.Kernel); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if m.CreatedAt.IsZero() {
		return errors.New("registry: created_at is zero")
	}
	return nil
}

// DecodeManifest reads, decodes and validates one manifest. It is the
// registry's untrusted-input surface (FuzzManifest): it must never
// panic and never accept a manifest whose names could escape the
// registry root. Reads are capped at maxManifestBytes and unknown
// fields are rejected — the registry owns both the writer and the
// reader of this format.
func DecodeManifest(r io.Reader) (Manifest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxManifestBytes))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("registry: decode manifest: %w", err)
	}
	if dec.More() {
		return Manifest{}, errors.New("registry: trailing data after manifest object")
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}
