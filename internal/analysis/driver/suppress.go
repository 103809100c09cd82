package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"temporaldoc/internal/analysis"
)

// Suppression comments:
//
//	//lint:ignore check1,check2 reason      — suppresses the named
//	  checks on the same line or the line directly below the comment.
//	//lint:file-ignore check1,check2 reason — suppresses the named
//	  checks for the whole file.
//
// The reason is mandatory: a directive without one is itself reported
// (check "lintdirective"), so suppressions stay reviewable. So is a
// directive naming a check outside the suite: once its check is gone it
// suppresses nothing and only misleads the reader.
const (
	ignorePrefix     = "lint:ignore "
	fileIgnorePrefix = "lint:file-ignore "
)

// suppressions indexes lint:ignore directives by file and line.
type suppressions struct {
	// line maps filename → line of the directive → suppressed checks.
	// A directive on line N suppresses findings on lines N and N+1.
	line map[string]map[int]map[string]bool
	// file maps filename → checks suppressed file-wide.
	file map[string]map[string]bool
}

func newSuppressions() *suppressions {
	return &suppressions{
		line: map[string]map[int]map[string]bool{},
		file: map[string]map[string]bool{},
	}
}

// lintDirective is the pseudo-check malformed and stale directives are
// reported under.
const lintDirective = "lintdirective"

// indexFile scans one parsed file's comments for directives. Malformed
// directives (no checks, or no reason) and names outside the suite are
// reported rather than silently ignored.
func (s *suppressions) indexFile(fset *token.FileSet, f *ast.File, suite map[string]bool, report func(analysis.Diagnostic)) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			var checks string
			var fileWide bool
			switch {
			case strings.HasPrefix(text, ignorePrefix):
				checks = strings.TrimPrefix(text, ignorePrefix)
			case strings.HasPrefix(text, fileIgnorePrefix):
				checks = strings.TrimPrefix(text, fileIgnorePrefix)
				fileWide = true
			case strings.HasPrefix(text, "lint:"):
				report(analysis.Diagnostic{
					Pos:     c.Pos(),
					Check:   lintDirective,
					Message: "unrecognized lint directive (want lint:ignore or lint:file-ignore)",
				})
				continue
			default:
				continue
			}
			names, reason, _ := strings.Cut(strings.TrimSpace(checks), " ")
			if names == "" || strings.TrimSpace(reason) == "" {
				report(analysis.Diagnostic{
					Pos:     c.Pos(),
					Check:   lintDirective,
					Message: "lint directive needs checks and a reason: //lint:ignore check1,check2 why",
				})
				continue
			}
			pos := fset.Position(c.Pos())
			for _, name := range strings.Split(names, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				if !suite[name] {
					report(analysis.Diagnostic{
						Pos:     c.Pos(),
						Check:   lintDirective,
						Message: fmt.Sprintf("lint directive names %q, which is not a check of the suite; delete the stale suppression", name),
					})
					continue
				}
				if fileWide {
					s.addFile(pos.Filename, name)
				} else {
					s.addLine(pos.Filename, pos.Line, name)
				}
			}
		}
	}
}

func (s *suppressions) addLine(filename string, line int, check string) {
	lines, ok := s.line[filename]
	if !ok {
		lines = map[int]map[string]bool{}
		s.line[filename] = lines
	}
	checks, ok := lines[line]
	if !ok {
		checks = map[string]bool{}
		lines[line] = checks
	}
	checks[check] = true
}

func (s *suppressions) addFile(filename, check string) {
	checks, ok := s.file[filename]
	if !ok {
		checks = map[string]bool{}
		s.file[filename] = checks
	}
	checks[check] = true
}

// suppressed reports whether a finding of check at pos is covered by a
// directive: file-wide, on the same line, or on the line above.
func (s *suppressions) suppressed(check string, pos token.Position) bool {
	if s.file[pos.Filename][check] {
		return true
	}
	lines := s.line[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][check] || lines[pos.Line-1][check]
}
