// Documentation conformance tests: CI runs these (the "docs" step of the
// quick gate) so the package-doc surface and the generated pieces of
// DESIGN.md cannot silently rot.
package dlrmcomp_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlrmcomp/internal/experiments"
)

// TestDesignExperimentIndexInSync pins the experiment-index table embedded
// in DESIGN.md to the registry (`go run ./cmd/experiments -design`
// regenerates it), so the docs and the code cannot name different
// experiment sets.
func TestDesignExperimentIndexInSync(t *testing.T) {
	const begin, end = "<!-- experiment-index:begin -->", "<!-- experiment-index:end -->"
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	i := strings.Index(text, begin)
	j := strings.Index(text, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("DESIGN.md lacks the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(text[i+len(begin) : j])
	want := strings.TrimSpace(experiments.IndexMarkdown())
	if got != want {
		t.Fatalf("DESIGN.md experiment index is out of sync with the registry.\n"+
			"Regenerate with: go run ./cmd/experiments -design\n--- DESIGN.md ---\n%s\n--- registry ---\n%s", got, want)
	}
}

// TestEveryInternalPackageHasDoc enforces the godoc floor: every
// internal/* package must carry a package comment that names the package
// and says enough to place it in the layer stack. New packages fail here
// until they ship a doc.go (or equivalent package comment).
func TestEveryInternalPackageHasDoc(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found (run from the repo root)")
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		docText, err := packageDoc(dir)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		name := filepath.Base(dir)
		switch {
		case docText == "":
			t.Errorf("package %s has no package comment; add a doc.go describing its layer, key types, and any sim-time buckets it charges", dir)
		case !strings.HasPrefix(docText, "Package "+name):
			t.Errorf("package %s: package comment must start with %q (godoc convention), got %q",
				dir, "Package "+name, firstLine(docText))
		case len(docText) < 120:
			t.Errorf("package %s: package comment is %d chars; describe the package's layer and key types (>= 120 chars)",
				dir, len(docText))
		}
	}
}

// packageDoc returns the package comment of the (non-test) package in dir.
func packageDoc(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil {
				return strings.TrimSpace(f.Doc.Text()), nil
			}
		}
	}
	return "", nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestFacadeExamplesExist keeps the runnable godoc examples from being
// deleted without notice: the facade's example file must cover the core
// entry points (they double as tests under `go test ./...`).
func TestFacadeExamplesExist(t *testing.T) {
	raw, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatalf("example_test.go missing: %v", err)
	}
	for _, want := range []string{
		"func ExampleCodec", "func ExampleTrainer_Step", "func ExampleHierarchical",
		"func ExampleTrainer_OverlappedSimTime", "func ExampleRunScenario", "func ExampleNewController",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("example_test.go lacks %s", want)
		}
	}
}
