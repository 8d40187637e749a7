package lint

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: each directory
// under testdata/src is one package of fixture code annotated with
//
//	expr // want "regexp"
//
// comments. The directory name doubles as the package's import path
// with "__" standing in for "/", so a fixture can claim a
// determinism-critical or trusted path ("alloystack__internal__pool"
// analyzes as alloystack/internal/pool). Every reported diagnostic must
// match a want on its line and every want must be matched.
var wantRe = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	file string
	line int
}

// runFixture runs a per-package analyzer over one fixture package.
func runFixture(t *testing.T, dirName string, a *Analyzer) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", dirName)
	pkg, err := loader.LoadDir(dir, strings.ReplaceAll(dirName, "__", "/"))
	if err != nil {
		t.Fatalf("load fixture %s: %v", dirName, err)
	}
	checkWants(t, []*Package{pkg}, RunAnalyzers(pkg, []*Analyzer{a}, nil))
}

// checkWants is the one want matcher: every diagnostic must match a
// want on its line, and every want must be matched.
func checkWants(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	matched := make(map[wantKey][]bool)
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want %q: %v", pkg.Filenames[i], m[1], err)
					}
					k := wantKey{pkg.Filenames[i], pkg.Fset.Position(c.Pos()).Line}
					wants[k] = append(wants[k], re)
					matched[k] = append(matched[k], false)
				}
			}
		}
	}

	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		ok := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none",
					k.file, k.line, re)
			}
		}
	}
}

func TestPKRUPairFixtures(t *testing.T) {
	runFixture(t, "pkrupair_user", PKRUPair)
}

func TestSentErrFixtures(t *testing.T) {
	runFixture(t, "senterr_user", SentErr)
}

func TestWallClockFixtures(t *testing.T) {
	runFixture(t, "alloystack__internal__pool", WallClock)
}

func TestWallClockJournalFixtures(t *testing.T) {
	runFixture(t, "alloystack__internal__journal", WallClock)
}

func TestWallClockBenchFixtures(t *testing.T) {
	runFixture(t, "alloystack__internal__bench", WallClock)
}

func TestWallClockClusterFixtures(t *testing.T) {
	runFixture(t, "alloystack__internal__cluster", WallClock)
}

func TestWallClockMetricsFixtures(t *testing.T) {
	// Exercises the multi-prefix scope: histogram_fixture.go is in scope
	// and carries want comments; unscoped.go reads the clock freely and
	// must stay silent.
	runFixture(t, "alloystack__internal__metrics", WallClock)
}

func TestWallClockOutOfScopePackageExempt(t *testing.T) {
	// senterr_user calls time.Now freely; wallclock only scopes the
	// determinism-critical packages, so it must stay silent here. The
	// fixture's want comments belong to senterr, so bypass runFixture
	// and assert directly on the diagnostic count.
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "senterr_user"), "senterr_user")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(pkg, []*Analyzer{WallClock}, nil) {
		t.Errorf("wallclock fired outside its package scope: %s", d)
	}
}

func TestSpanEndFixtures(t *testing.T) {
	runFixture(t, "spanend_user", SpanEnd)
}

func TestAnalyzersHaveDocsAndUniqueNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, %v", len(all), err)
	}
	two, err := ByName("senterr, spanend")
	if err != nil || len(two) != 2 || two[0].Name != "senterr" || two[1].Name != "spanend" {
		t.Fatalf("ByName pair = %v, %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

func TestWaiverComment(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

//asvet:allow trustflow -- approved
var a = 1

var b = 2 //asvet:allow senterr, spanend
`
	f, err := parser.ParseFile(fset, "w.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	lines := allowedLines(fset, f)
	for _, tc := range []struct {
		line int
		name string
		ok   bool
	}{
		{3, "trustflow", true},
		{4, "trustflow", true}, // covers the next line
		{4, "senterr", false},
		{6, "senterr", true},
		{6, "spanend", true},
		{6, "trustflow", false},
	} {
		if got := lines[tc.line][tc.name]; got != tc.ok {
			t.Errorf("line %d analyzer %s: waived=%v, want %v", tc.line, tc.name, got, tc.ok)
		}
	}
}

func TestWaiverCommentEdgeCases(t *testing.T) {
	fset := token.NewFileSet()
	// Line 3: comma list without spaces. Line 5: em-dash reason.
	// Line 7: waiver trailing the flagged statement (covers its own
	// line). Line 9: reason containing "--" again after the separator.
	src := `package p

//asvet:allow pkrupair,trustflow,goleak -- tight list
var a = 1

//asvet:allow lockpair — em-dash separator, reason with punctuation
var b = 2

var c = 3 //asvet:allow lockorder -- trailing form

//asvet:allow spanend -- reason -- with a second dash-dash
var d = 4
`
	f, err := parser.ParseFile(fset, "w.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	lines := allowedLines(fset, f)
	for _, tc := range []struct {
		line int
		name string
		ok   bool
	}{
		// Comma list without spaces: every named analyzer is waived.
		{4, "pkrupair", true},
		{4, "trustflow", true},
		{4, "goleak", true},
		{4, "lockpair", false},
		// Em-dash separator works like "--".
		{6, "lockpair", true},
		{7, "lockpair", true},
		// Trailing waiver covers its own line N and N+1, but never N-1:
		// coverage extends forward only, so a waiver can trail the
		// flagged statement or precede it, not follow on the line after.
		{9, "lockorder", true},
		{10, "lockorder", true},
		{8, "lockorder", false},
		// A second "--" inside the reason does not confuse the parse.
		{12, "spanend", true},
		// Coverage ends after N+1.
		{13, "spanend", false},
	} {
		if got := lines[tc.line][tc.name]; got != tc.ok {
			t.Errorf("line %d analyzer %s: waived=%v, want %v", tc.line, tc.name, got, tc.ok)
		}
	}
}
