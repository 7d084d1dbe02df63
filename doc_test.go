package psi_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteLiveTests keeps every test, benchmark, fuzz target and example
// the documentation cites real: each name in a comment of a .go file, bench/'s
// included, or in README.md, scripts/check.sh, scripts/mutants.txt,
// bench/README.md or bench/run.sh, must be declared by a func in some
// _test.go, bench/'s own included. A name followed by * is a prefix pattern,
// as in go test's -run and -bench arguments. CHANGES.md and ROADMAP.md are
// history and are not read.
func TestDocsCiteLiveTests(t *testing.T) {
	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*\*?`)
	declared := map[string]bool{}
	type citation struct{ where, name string }
	var cited []citation

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("bench", "out") || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					declared[fn.Name.Name] = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range cite.FindAllString(c.Text, -1) {
					cited = append(cited, citation{fset.Position(c.Pos()).String(), name})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "scripts/check.sh", "scripts/mutants.txt", "bench/README.md", "bench/run.sh"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, name := range cite.FindAllString(sc.Text(), -1) {
				cited = append(cited, citation{fmt.Sprintf("%s:%d", doc, line), name})
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	if len(cited) == 0 {
		t.Fatal("no citations found: the scan reads nothing")
	}
	for _, c := range cited {
		if prefix, ok := strings.CutSuffix(c.name, "*"); ok {
			if !anyHasPrefix(declared, prefix) {
				t.Errorf("%s cites %s, which matches no func of any _test.go", c.where, c.name)
			}
		} else if !declared[c.name] {
			t.Errorf("%s cites %s, which no _test.go declares", c.where, c.name)
		}
	}
}

func anyHasPrefix(names map[string]bool, prefix string) bool {
	for name := range names {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// TestReadmeQuotesExample keeps README's library quickstart a verbatim copy
// of ExampleEngine_AddGraph's body, so the README shows code go test runs.
func TestReadmeQuotesExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, quote, ok := strings.Cut(string(readme), "## Library quickstart\n")
	_, quote, ok2 := strings.Cut(quote, "```go\n")
	quote, _, ok3 := strings.Cut(quote, "```\n")
	_, body, ok4 := strings.Cut(string(src), "func ExampleEngine_AddGraph() {\n")
	body, _, ok5 := strings.Cut(body, "\n}\n")
	if !(ok && ok2 && ok3 && ok4 && ok5) {
		t.Fatal("README's quickstart block or ExampleEngine_AddGraph not found")
	}
	lines := strings.Split(body, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(l, "\t")
	}
	if want := strings.Join(lines, "\n") + "\n"; quote != want {
		t.Errorf("README's library quickstart is not ExampleEngine_AddGraph's body:\n%s\nwant:\n%s", quote, want)
	}
}
