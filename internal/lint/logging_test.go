// Package lint holds repository-convention tests that a generic linter
// cannot express: build-time checks over the source tree itself.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// exitAllowed lists the library packages allowed to call os.Exit:
// cliflags.Fatal IS the documented process-exit path every cmd/ main
// funnels through, so the call lives there by design.
var exitAllowed = map[string]bool{
	"internal/cliflags": true,
}

// TestNoAdHocLoggingInLibraries enforces the logging discipline the
// request-scoped observability work depends on: every library package
// (everything under internal/) must log through *slog.Logger — whose
// context-aware methods attach trace_id/job_id — never via fmt's
// stdout printers or the legacy global "log" package, which bypass the
// handler chain and lose the request identity. It also forbids os.Exit
// in libraries (outside the exitAllowed exit path): a library that
// exits the process skips deferred cleanup, drain handshakes and the
// flight recorder's postmortem capture — return an error instead.
// Commands (cmd/) own their stdout and exit status and are exempt;
// tests are exempt.
func TestNoAdHocLoggingInLibraries(t *testing.T) {
	root := moduleRoot(t)
	var violations []string
	err := filepath.Walk(filepath.Join(root, "internal"), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "log" {
				violations = append(violations,
					rel+": imports \"log\" — use log/slog so lines carry trace_id")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pos := fset.Position(call.Pos())
			switch {
			case pkg.Name == "fmt":
				switch sel.Sel.Name {
				case "Print", "Printf", "Println":
					violations = append(violations,
						rel+":"+strconv.Itoa(pos.Line)+": fmt."+sel.Sel.Name+
							" writes to stdout — log via slog (or fmt.Fprint* to an explicit writer)")
				}
			case pkg.Name == "os" && sel.Sel.Name == "Exit":
				if !exitAllowed[filepath.ToSlash(filepath.Dir(rel))] {
					violations = append(violations,
						rel+":"+strconv.Itoa(pos.Line)+": os.Exit in a library skips deferred cleanup"+
							" and postmortem capture — return an error (cmd mains exit via cliflags.Fatal)")
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// servingPath lists the packages of msrnetd's job path, whose phases the
// span index (internal/obs/spans) times.
var servingPath = []string{"internal/service", "internal/jobstore"}

// TestOneTimerPerPhaseInServingPath enforces one span model per
// process on the job path: each phase is timed once, by the span index
// that serves explain summaries, /debug/spans and the fleet collector.
// A registry span (obs.Registry.StartSpan) at the same call site would
// time the phase a second time under another name. Tests are exempt.
func TestOneTimerPerPhaseInServingPath(t *testing.T) {
	root := moduleRoot(t)
	for _, dir := range servingPath {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "StartSpan" {
						rel, _ := filepath.Rel(root, path)
						t.Errorf("%s:%d: StartSpan times a job phase the span index already times — use Config.Spans.Start",
							rel, fset.Position(call.Pos()).Line)
					}
				}
				return true
			})
		}
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
