package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/registry"
)

// cmdPublish copies a trained snapshot (tdc train -out) into a model
// registry directory as an immutable (model, version) pair, ready for
// `tdc serve -models-dir`. The copy is atomic — a serving rescan sees
// either nothing or the complete version — and the snapshot is fully
// loaded here first, so a registry never gains a version that cannot
// serve.
func cmdPublish(args []string) error {
	fs := flag.NewFlagSet("publish", flag.ExitOnError)
	dir := fs.String("models-dir", "models", "registry directory to publish into (created if missing)")
	name := fs.String("name", "", "model name to publish under (required)")
	version := fs.String("version", "", "version name, e.g. v1 (required)")
	snapshot := fs.String("snapshot", "", "snapshot file to publish (required)")
	kernel := fs.String("kernel", "", "record an encode-kernel override for this version (float64 or float32; empty inherits the server's)")
	method := fs.String("method", "", "require the snapshot's feature-selection method (df, ig, mi, nouns, chi; empty accepts any)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *version == "" || *snapshot == "" {
		return errors.New("publish needs -name, -version and -snapshot")
	}
	var m featsel.Method
	if *method != "" {
		var err error
		if m, err = methodByName(*method); err != nil {
			return err
		}
	}
	// Deep-validate before publishing: registry.Publish only checks the
	// header, but a version that cannot load has no business in a
	// registry a server scans.
	if _, _, err := core.LoadFile(*snapshot); err != nil {
		return fmt.Errorf("snapshot does not load: %w", err)
	}
	//lint:ignore determinism publish stamp: CreatedAt orders registry versions, it never reaches model state
	now := time.Now()
	man, err := registry.Publish(*dir, *name, *version, *snapshot, registry.PublishOptions{
		CreatedAt: now,
		Kernel:    *kernel,
		Method:    m,
	})
	if err != nil {
		return err
	}
	fmt.Printf("published %s/%s (sha256 %s, %d bytes, method %s)\n",
		man.Model, man.Version, man.SHA256, man.Bytes, man.FeatureMethod)
	return nil
}
