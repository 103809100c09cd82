package driver

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The baseline file grandfathers known findings so the lint gate can be
// adopted (and new rules added) without blocking on a full cleanup.
// Each line is
//
//	relpath: [check] message
//
// — no line numbers, so unrelated edits that shift code do not churn
// the file. Matching is a multiset: a baseline line absorbs exactly one
// identical finding. Regenerate deliberately with `make lint-baseline`.
// An empty baseline means the tree is clean.

// baseline is a multiset of grandfathered finding keys.
type baseline map[string]int

func baselineKey(f Finding) string {
	return fmt.Sprintf("%s: [%s] %s", f.RelPath, f.Check, f.Message)
}

// readBaseline loads a baseline file; a missing file is an empty
// baseline.
func readBaseline(path string) (baseline, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return baseline{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := baseline{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		b[line]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// apply drops the findings the baseline absorbs, consuming one
// baseline entry per match.
func (b baseline) apply(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if key := baselineKey(f); b[key] > 0 {
			b[key]--
			continue
		}
		out = append(out, f)
	}
	return out
}

// writeBaseline writes the findings as a fresh baseline file.
func writeBaseline(path string, findings []Finding) error {
	keys := make([]string, len(findings))
	for i, f := range findings {
		keys[i] = baselineKey(f)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("# tdlint baseline — grandfathered findings, one per line.\n")
	sb.WriteString("# Regenerate deliberately with `make lint-baseline`; keep empty when the tree is clean.\n")
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteString("\n")
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
