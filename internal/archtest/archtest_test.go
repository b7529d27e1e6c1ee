package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A rule keeps one decision in one place: a function or method whose name
// starts with prefix may be declared only under the allowed directories
// (module-relative, slash-separated). why names the decision and the
// ROADMAP item that made it true.
type rule struct {
	prefix string
	allow  []string
	why    string
}

// rules is one line per decision. An entry is only ever removed.
var rules = []rule{
	{"brute", []string{"internal/oracle"}, "item 17: internal/oracle alone defines a correct answer by brute force"},
}

// TestTreeShape parses every Go file of the root module, tests included,
// and fails on each declaration a rule forbids where it stands, naming its
// file and line. A directory with its own go.mod is another module
// (bench/, frozen) and is not scanned, nor are the directories the go tool
// ignores (., _ and testdata).
func TestTreeShape(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s: %v", root, err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, r := range rules {
				if strings.HasPrefix(fn.Name.Name, r.prefix) && !allowed(rel, r.allow) {
					t.Errorf("%s:%d: func %s: %s", rel, fset.Position(fn.Pos()).Line, fn.Name.Name, r.why)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no Go file under %s: the rules checked nothing", root)
	}
}

// allowed reports whether the module-relative file rel lies under one of
// dirs.
func allowed(rel string, dirs []string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}
