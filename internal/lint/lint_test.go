package lint_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"senss/internal/lint"
)

// newLoader builds a loader rooted at the module (two levels up from this
// package's directory).
func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wantRe matches the two expected-diagnostic golden forms:
//
//	// want "substring"
//	// want `substring`
var wantRe = regexp.MustCompile("want (?:\"([^\"]+)\"|`([^`]+)`)")

// expectation is one // want comment, consumed as diagnostics match it.
type expectation struct {
	file     string
	line     int
	substr   string
	consumed bool
}

// collectWants scans every comment of the fixture package.
func collectWants(pkg *lint.Package) []*expectation {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					substr := m[1]
					if substr == "" {
						substr = m[2]
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, substr: substr})
				}
			}
		}
	}
	return out
}

// runFixture loads testdata/<dir>, runs the analyzer with its package
// scope lifted, and matches diagnostics against the want comments.
func runFixture(t *testing.T, loader *lint.Loader, a *lint.Analyzer, dir string) {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", dir, terr)
	}
	a.Scope = nil // fixtures live outside the analyzer's default scope
	diags := lint.RunAnalyzers([]*lint.Analyzer{a}, []*lint.Package{pkg})

	wants := collectWants(pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	var matched int
outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.consumed && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.consumed = true
				matched++
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.consumed {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	} else if matched == 0 {
		t.Errorf("fixture %s matched no diagnostics", dir)
	}
}

// fixtureCase pairs a testdata package with the analyzer it exercises.
type fixtureCase struct {
	dir      string
	analyzer *lint.Analyzer
}

// fixtureCases lists every seeded-violation fixture package, each with a
// fresh analyzer (runFixture lifts its scope).
func fixtureCases() []fixtureCase {
	return []fixtureCase{
		{"determ", lint.AnalyzerDeterminism()},
		{"nondet", lint.AnalyzerNondeterm()},
		{"orchfix", lint.AnalyzerNondeterm()},
		{"secrets", lint.AnalyzerSecrets()},
		{"cycle", lint.AnalyzerCycleAcct()},
		{"dropped", lint.AnalyzerDroppedErr()},
		{"suppress", lint.AnalyzerDroppedErr()},
		{"taint", lint.AnalyzerTaintflow()},
		{"hotpath", lint.AnalyzerHotpath()},
		{"lockguard", lint.AnalyzerLockguard()},
	}
}

// TestAnalyzerFixtures drives every analyzer over its seeded-violation
// fixture package (the expected-diagnostic golden format).
func TestAnalyzerFixtures(t *testing.T) {
	loader := newLoader(t)
	for _, tc := range fixtureCases() {
		t.Run(tc.dir, func(t *testing.T) {
			runFixture(t, loader, tc.analyzer, tc.dir)
		})
	}
}

// TestRegistryNamesUnique guards the ignore-directive namespace.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Registry() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestModuleClean runs the full registry over the real module and demands
// zero findings — the same gate cmd/senss-lint enforces, kept green by the
// ordinary test suite.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader := newLoader(t)
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	for _, pkg := range pkgs {
		if strings.Contains(pkg.RelPath, "lint/testdata") {
			continue
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("loaded only %d packages; loader lost the module", checked)
	}
	diags := lint.RunAnalyzers(lint.Registry(), pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("senss-lint found %d issue(s); the tree must stay lint-clean", len(diags))
	}
}

// TestModuleLockOrder pins the module's annotated lock-acquisition graph
// against a checked-in golden. The sanctioned graph has every guard class
// and no edges at all — the serving and orchestration layers never nest
// annotated locks — so any future nesting (a deadlock precursor) fails
// this test and must be reviewed into the golden deliberately.
func TestModuleLockOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader := newLoader(t)
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	classes, edges := lint.LockOrderGraph(pkgs)
	got := struct {
		Classes []string            `json:"classes"`
		Edges   map[string][]string `json:"edges"`
	}{Classes: classes, Edges: edges}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	golden := filepath.Join("testdata", "lockorder_module.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(want) {
		t.Errorf("module lock-order graph drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, gotJSON, want)
	}
}

// TestLockguardPlantedUnlock is the planted-regression gate: the
// lockserve fixture (a stdlib-only mirror of serve's lock-striped table)
// is clean as checked in, and removing the one marked Unlock from
// Table.Delete must produce the missing-release finding.
func TestLockguardPlantedUnlock(t *testing.T) {
	loader := newLoader(t)
	clean, err := loader.LoadDir(filepath.Join("testdata", "lockserve"))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range clean.TypeErrors {
		t.Errorf("lockserve fixture does not type-check: %v", terr)
	}
	a := lint.AnalyzerLockguard()
	a.Scope = nil
	if diags := lint.RunAnalyzers([]*lint.Analyzer{a}, []*lint.Package{clean}); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("clean lockserve fixture: %s", d)
		}
		t.Fatal("lockserve fixture must be lint-clean before mutation")
	}

	src, err := os.ReadFile(filepath.Join("testdata", "lockserve", "table.go"))
	if err != nil {
		t.Fatal(err)
	}
	marker := "s.mu.Unlock() // planted-unlock"
	if !strings.Contains(string(src), marker) {
		t.Fatalf("lockserve fixture lost its planted-unlock marker")
	}
	mutated := strings.Replace(string(src), marker, "// planted-unlock removed", 1)
	dir := filepath.Join(t.TempDir(), "lockserve")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "table.go"), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := lint.AnalyzerLockguard()
	b.Scope = nil
	diags := lint.RunAnalyzers([]*lint.Analyzer{b}, []*lint.Package{pkg})
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "not released on this return path") {
			found = true
		}
	}
	if !found {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Error("removing the Unlock from Table.Delete was not caught")
	}
}

// TestNoVariableTimeCompareHelpers asserts the remediation of this
// analyzer's findings sticks at the source level: the packages that
// handle MACs, tags, and keys contain no bytes.Equal / reflect.DeepEqual
// calls and no local byte-loop equality helpers — every comparison of
// secret-adjacent material goes through internal/crypto/ct.Equal. The
// semantic version of this guarantee (no ==/!= on tainted material
// either) is enforced by taintflow via TestModuleClean; this textual
// check catches a helper being reintroduced in a form the taint engine
// might not see as secret.
func TestNoVariableTimeCompareHelpers(t *testing.T) {
	banned := []string{"bytes.Equal(", "reflect.DeepEqual(", "func bytesEqual(", "func equalBytes("}
	for _, dir := range []string{"core", "integrity", "memsec", "machine", "oracle", "crypto"} {
		root, err := filepath.Abs(filepath.Join("../..", "internal", dir))
		if err != nil {
			t.Fatal(err)
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, b := range banned {
				if strings.Contains(string(src), b) {
					t.Errorf("%s contains %q; compare secret material with ct.Equal", path, strings.TrimSuffix(b, "("))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestContentHash pins the -json envelope's caching contract: the hash is
// stable across runs over identical inputs, sensitive to the analyzer
// set, and insensitive to analyzer-name order.
func TestContentHash(t *testing.T) {
	loader := newLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "taint"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*lint.Package{pkg}
	h1, err := lint.ContentHash([]string{"taintflow", "secrets"}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := lint.ContentHash([]string{"secrets", "taintflow"}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash depends on analyzer order: %s vs %s", h1, h2)
	}
	if !strings.HasPrefix(h1, "sha256:") || len(h1) != len("sha256:")+64 {
		t.Errorf("malformed hash %q", h1)
	}
	h3, err := lint.ContentHash([]string{"taintflow"}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("hash ignores the analyzer set")
	}

	// The senss-farm lint cache keys on the registry names, so every
	// analyzer added since (hotpath in PR 6, lockguard in this PR) must
	// invalidate old cache entries: the registry must carry the name, and
	// a hash over the full registry must differ from one missing it —
	// that difference is exactly what retires stale 7-analyzer verdicts.
	var names []string
	for _, a := range lint.Registry() {
		names = append(names, a.Name)
	}
	for _, added := range []string{"hotpath", "lockguard"} {
		present := false
		for _, n := range names {
			if n == added {
				present = true
			}
		}
		if !present {
			t.Fatalf("registry does not include %s; farm lint caching would miss it", added)
		}
		hFull, err := lint.ContentHash(names, pkgs)
		if err != nil {
			t.Fatal(err)
		}
		var without []string
		for _, n := range names {
			if n != added {
				without = append(without, n)
			}
		}
		hWithout, err := lint.ContentHash(without, pkgs)
		if err != nil {
			t.Fatal(err)
		}
		if hFull == hWithout {
			t.Errorf("hash insensitive to the %s analyzer; stale farm cache entries would be reused", added)
		}
	}
}

// TestContentHashRelocatable pins the cache-sharing half of the contract:
// the hash digests module-relative paths, so the same tree checked out at
// two different absolute locations produces the same hash.
func TestContentHashRelocatable(t *testing.T) {
	loader := newLoader(t)
	src, err := filepath.Abs(filepath.Join("testdata", "taint"))
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for _, parent := range []string{"checkout-a", "checkout-b/nested"} {
		dir := filepath.Join(t.TempDir(), parent, "taint")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		h, err := lint.ContentHash([]string{"taintflow"}, []*lint.Package{pkg})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	if hashes[0] != hashes[1] {
		t.Errorf("hash depends on the checkout path: %s vs %s", hashes[0], hashes[1])
	}
}

// TestDiagnosticString pins the report format the driver prints.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "determinism", Message: "boom"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	got := d.String()
	want := "a/b.go:3:7: [determinism] boom"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if fmt.Sprint(d) != want {
		t.Fatalf("Sprint mismatch")
	}
}
