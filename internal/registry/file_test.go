package registry

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"temporaldoc/internal/featsel"
)

// copySnapshot writes src's bytes to dst through a temp file and a
// rename, the way a deploy replaces a served snapshot.
func copySnapshot(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		t.Fatal(err)
	}
}

// openFile opens a registry on a private copy of the fixture snapshot.
func openFile(t *testing.T) (*Registry, string) {
	t.Helper()
	f := getRegFixture(t)
	live := filepath.Join(t.TempDir(), "live.json")
	copySnapshot(t, f.path, live)
	return openReg(t, live, nil), live
}

func acquireDefault(t *testing.T, r *Registry) *Snapshot {
	t.Helper()
	snap, err := r.Acquire(context.Background(), "", "")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	return snap
}

func TestOpenFileRejects(t *testing.T) {
	f := getRegFixture(t)
	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Root: corrupt}); err == nil {
		t.Error("Open accepted a corrupt snapshot file")
	}
	_, err := Open(Config{Root: f.path, Method: featsel.MI})
	if err == nil {
		t.Fatal("Open loaded a df snapshot under a required mi method")
	}
	if !strings.Contains(err.Error(), "feature method") {
		t.Errorf("error %q does not explain the method mismatch", err)
	}
}

func TestOpenFileServesOneResidentEntry(t *testing.T) {
	f := getRegFixture(t)
	r, live := openFile(t)
	if got := counter(r, "registry.loads"); got != 1 {
		t.Errorf("registry.loads after Open = %d, want 1", got)
	}
	model, version, sha, ok := r.DefaultVersionInfo()
	if !ok || model != FileModel || version != FileVersion || sha != f.hash {
		t.Errorf("default = %s/%s %s (ok %v), want %s/%s %s", model, version, sha, ok, FileModel, FileVersion, f.hash)
	}
	models := r.Models()
	if len(models) != 1 || len(models[0].Versions) != 1 {
		t.Fatalf("catalog = %+v, want one model with one version", models)
	}
	v := models[0].Versions[0]
	if !v.Resident || !v.Latest || v.SHA256 != f.hash || v.Bytes != f.bytes || v.FeatureMethod != "df" ||
		v.Kernel != "float64" || v.SnapshotPath != live || v.LoadedAt == nil {
		t.Errorf("version = %+v", v)
	}
	if !reflect.DeepEqual(v.Categories, f.model.Categories()) {
		t.Errorf("categories %v, want %v", v.Categories, f.model.Categories())
	}
	if _, err := r.Acquire(context.Background(), "other", ""); err == nil {
		t.Error("a snapshot-file registry resolved an unknown model")
	}
}

// TestFileScanSwapsResident: a Scan after the file changed installs the
// new bytes, and a snapshot pinned before the swap keeps classifying.
func TestFileScanSwapsResident(t *testing.T) {
	f := getRegFixture(t)
	r, live := openFile(t)
	before := acquireDefault(t, r)

	copySnapshot(t, f.pathAlt, live)
	stats, err := r.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if stats != (ScanStats{Models: 1, Versions: 1}) {
		t.Errorf("scan stats %+v", stats)
	}
	after := acquireDefault(t, r)
	if after == before || after.Info.SHA256 != f.hashAlt {
		t.Fatalf("after scan: hash %s (same pointer %v), want %s", after.Info.SHA256, after == before, f.hashAlt)
	}
	if _, _, sha, _ := r.DefaultVersionInfo(); sha != f.hashAlt {
		t.Errorf("catalog hash %s, want %s", sha, f.hashAlt)
	}
	if got := r.ResidentCount(); got != 1 {
		t.Errorf("resident count %d, want 1", got)
	}
	if got := counter(r, "registry.loads"); got != 2 {
		t.Errorf("registry.loads = %d, want 2 (Open + Scan)", got)
	}
	// The pinned snapshot is untouched and still scores documents.
	if before.Info.SHA256 != f.hash {
		t.Errorf("pinned snapshot hash changed to %s", before.Info.SHA256)
	}
	for i := range f.corpus.Test[:5] {
		got, err := before.Model.ClassifyDoc(&f.corpus.Test[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.model.ClassifyDoc(&f.corpus.Test[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: pinned snapshot predicts %+v, want %+v", i, got, want)
		}
	}
}

// TestFileScanFailureKeepsServing: a Scan of a corrupted file fails and
// the previous snapshot stays resident.
func TestFileScanFailureKeepsServing(t *testing.T) {
	f := getRegFixture(t)
	r, live := openFile(t)
	before := acquireDefault(t, r)
	if err := os.WriteFile(live, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Scan(); err == nil {
		t.Fatal("Scan accepted a corrupted snapshot file")
	}
	if got := counter(r, "registry.load.errors"); got != 1 {
		t.Errorf("registry.load.errors = %d, want 1", got)
	}
	if after := acquireDefault(t, r); after != before {
		t.Errorf("failed scan replaced the resident snapshot (hash %s)", after.Info.SHA256)
	}
	if _, _, sha, _ := r.DefaultVersionInfo(); sha != f.hash {
		t.Errorf("catalog hash %s after a failed scan, want %s", sha, f.hash)
	}
}

// TestFileAcquireStampedeNoLoad: Open already made the file resident,
// so a cold-start stampede is all hits.
func TestFileAcquireStampedeNoLoad(t *testing.T) {
	r, _ := openFile(t)
	const n = 32
	snaps := make([]*Snapshot, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			snap, err := r.Acquire(context.Background(), "", "")
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = snap
		}(i)
	}
	close(start)
	wg.Wait()
	for i, s := range snaps {
		if s != snaps[0] {
			t.Fatalf("goroutine %d got a different snapshot", i)
		}
	}
	if got := counter(r, "registry.loads"); got != 1 {
		t.Errorf("registry.loads = %d, want 1 (the load at Open)", got)
	}
	if got := counter(r, "registry.hits"); got != n {
		t.Errorf("registry.hits = %d, want %d", got, n)
	}
}

// BenchmarkAcquireResident is the per-request cost a snapshot-file
// server pays to pin its one resident entry.
func BenchmarkAcquireResident(b *testing.B) {
	r, err := Open(Config{Root: getRegFixture(b).path})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Acquire(ctx, "", ""); err != nil {
			b.Fatal(err)
		}
	}
}
