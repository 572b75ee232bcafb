// The wall-clock gate: the execution-stamp and block-timing tests assert
// exact nanosecond values driven entirely by injected clocks, and a single
// time.Now() or time.Sleep() slipping into them would turn deterministic
// assertions into machine-speed-dependent flakes. The gate parses each
// designated file and fails on any use of the time package, so "the timing
// tests are deterministic" is enforced, not aspirational.
package docscheck

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// clockFreeTests are the test files whose timing assertions must come only
// from injected clocks, relative to the repo root.
var clockFreeTests = []string{
	"internal/planner/exec_test.go",
	"internal/core/timing_test.go",
}

func TestTimingTestsAreClockFree(t *testing.T) {
	root := repoRoot(t)
	for _, rel := range clockFreeTests {
		path := filepath.Join(root, filepath.FromSlash(rel))
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Errorf("%s: %v (listed in the wall-clock gate but unparseable)", rel, err)
			continue
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == "time" {
				t.Errorf("%s: imports %q — timing assertions must use injected clocks, never the wall clock", rel, p)
			}
		}
		// Belt and braces: a dot-import or alias could hide the import path
		// check's intent, so the source must not mention the clock calls at
		// all (comments excepted would be nice, but mentioning them in
		// comments is harmless enough to keep the scan simple and strict).
		src, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		for _, forbidden := range []string{"time.Now(", "time.Sleep(", "time.Since(", "time.Tick(", "time.After("} {
			if strings.Contains(string(src), forbidden) {
				t.Errorf("%s: contains %q — timing assertions must use injected clocks", rel, forbidden)
			}
		}
	}
}
