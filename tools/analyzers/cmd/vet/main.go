// Command vet is the repository's multichecker: it runs every repo-local
// analyzer (faultwrap, mapdeterminism) over Go source, walking files and
// directories directly (no go/packages, no type checking — both analyzers
// are purely syntactic):
//
//	go run ./tools/analyzers/cmd/vet ./...
//	go run ./tools/analyzers/cmd/vet internal/eval tools/benchdiff/main.go
//
// A dir/... walk reads every .go file outside testdata, vendor and dot
// directories, whatever its build tags and whichever module holds it, so
// it covers files a build-graph driver such as `go vet` skips (the
// non-amd64 JIT fallback, the nested bench module).
//
// Diagnostics go to stderr as file:line:col: [analyzer] message. Exit
// status: 0 clean, 1 on findings, 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"compisa/tools/analyzers/faultwrap"
	"compisa/tools/analyzers/mapdeterminism"
)

// diagnostic is one analyzer finding with its source position resolved.
type diagnostic struct {
	pos      token.Position
	analyzer string
	msg      string
}

// runAnalyzers applies every registered analyzer to one parsed file.
func runAnalyzers(fset *token.FileSet, f *ast.File) []diagnostic {
	var diags []diagnostic
	for _, fd := range faultwrap.CheckFile(f) {
		diags = append(diags, diagnostic{fset.Position(fd.Pos), faultwrap.Name, fd.Msg})
	}
	for _, fd := range mapdeterminism.CheckFile(f) {
		diags = append(diags, diagnostic{fset.Position(fd.Pos), mapdeterminism.Name, fd.Msg})
	}
	return diags
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vet [files, dirs, dir/... patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(run(args))
}

// run walks the argument files/dirs/... patterns, printing findings to
// stderr; exit 1 when any are reported.
func run(args []string) int {
	fset := token.NewFileSet()
	var diags []diagnostic
	for _, arg := range args {
		ds, err := checkPath(fset, arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vet: %v\n", err)
			return 2
		}
		diags = append(diags, ds...)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.pos, d.analyzer, d.msg)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// checkPath analyzes one argument: a file, a directory, or a recursive
// dir/... pattern.
func checkPath(fset *token.FileSet, arg string) ([]diagnostic, error) {
	recursive := false
	if strings.HasSuffix(arg, "/...") {
		recursive = true
		arg = strings.TrimSuffix(arg, "/...")
		if arg == "" {
			arg = "."
		}
	}
	info, err := os.Stat(arg)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return checkFile(fset, arg)
	}
	var diags []diagnostic
	walk := func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != arg && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if path != arg && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		ds, ferr := checkFile(fset, path)
		if ferr != nil {
			return ferr
		}
		diags = append(diags, ds...)
		return nil
	}
	if err := filepath.WalkDir(arg, walk); err != nil {
		return nil, err
	}
	return diags, nil
}

func checkFile(fset *token.FileSet, path string) ([]diagnostic, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return runAnalyzers(fset, f), nil
}
