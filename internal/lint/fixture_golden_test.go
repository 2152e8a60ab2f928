package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"senss/internal/lint"
)

// fixtureDiagsGolden pins the complete diagnostic list of every fixture
// package, byte for byte, with module-relative paths. TestAnalyzerFixtures
// only matches `// want` substrings; this file also fixes the exact
// messages, columns, and order, so a refactor of the analyzers' shared
// machinery must reproduce it unchanged.
const fixtureDiagsGolden = "testdata/fixture_diags.golden"

// TestFixtureDiagsGolden byte-compares the Diagnostic.String() list of
// every fixture case (plus the clean lockserve fixture) against
// testdata/fixture_diags.golden. Regenerate with
// SENSS_UPDATE_GOLDEN=1 go test -run TestFixtureDiagsGolden ./internal/lint
// — but only when an analyzer's findings changed on purpose.
func TestFixtureDiagsGolden(t *testing.T) {
	loader := newLoader(t)
	root := loader.Root + string(filepath.Separator)
	cases := append(fixtureCases(), fixtureCase{"lockserve", lint.AnalyzerLockguard()})
	var b strings.Builder
	for _, tc := range cases {
		pkg, err := loader.LoadDir(filepath.Join("testdata", tc.dir))
		if err != nil {
			t.Fatal(err)
		}
		tc.analyzer.Scope = nil
		b.WriteString("# " + tc.dir + " " + tc.analyzer.Name + "\n")
		// Strip the checkout root everywhere on the line: some messages
		// (lockguard's "Lock at ...") cite a second position.
		for _, d := range lint.RunAnalyzers([]*lint.Analyzer{tc.analyzer}, []*lint.Package{pkg}) {
			b.WriteString(filepath.ToSlash(strings.ReplaceAll(d.String(), root, "")) + "\n")
		}
	}
	got := b.String()

	if os.Getenv("SENSS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(fixtureDiagsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded fixture diagnostics to %s", fixtureDiagsGolden)
		return
	}
	want, err := os.ReadFile(fixtureDiagsGolden)
	if err != nil {
		t.Fatalf("missing golden (generate with SENSS_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("fixture diagnostics drifted from %s\n got:\n%s\nwant:\n%s", fixtureDiagsGolden, got, want)
	}
}
