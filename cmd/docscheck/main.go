// Command docscheck is the documentation gate run by `make docs-check` and
// CI. It walks the module and fails (exit 1) when:
//
//   - any package (including internal ones) lacks a package doc comment in
//     a non-test file, or
//   - an exported identifier — top-level const, var, type, func or
//     method — in one of the strictly checked packages lacks a doc
//     comment.
//
// The strictly checked packages are the public surface plus the serving
// infrastructure an operator programs against: the root package (the
// bounded API), internal/server (the wire protocol), internal/shard (the
// partitioning, routing and write-path contract documented in
// docs/OPERATIONS.md), internal/cache (the plan-cache semantics every
// invariant rests on), internal/core (the engine surface the router and
// front end build on), internal/store (the storage substrate, including
// the batched write entry point the broadcast apply queue relies on),
// internal/wal (the durability contract: framing, LSN and recovery
// semantics operators rely on when data is on the line),
// internal/follower (the read-replica node an operator deploys and
// monitors),
// internal/bench (the replay benchmark operators quote numbers from),
// internal/exec (the vectorized execution core every answer flows
// through, including the Source the router's routed reads implement)
// and internal/value (the value model and handle interning that equality,
// hashing and key encoding rest on).
// Everything else under internal/ may evolve faster, but its
// package-level story must always be told.
//
// Usage:
//
//	docscheck [module root]      # default "."
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// strictDirs are module-relative directories whose exported identifiers
// must all carry doc comments.
var strictDirs = map[string]bool{
	".":                 true,
	"internal/server":   true,
	"internal/shard":    true,
	"internal/cache":    true,
	"internal/core":     true,
	"internal/ivm":      true,
	"internal/store":    true,
	"internal/wal":      true,
	"internal/bench":    true,
	"internal/follower": true,
	"internal/exec":     true,
	"internal/value":    true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	violations, err := check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check walks every Go package directory under root and collects
// documentation violations, sorted by position.
func check(root string) ([]string, error) {
	var violations []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
			return fs.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		vs, err := checkDir(path, rel)
		if err != nil {
			return err
		}
		violations = append(violations, vs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(violations)
	return violations, nil
}

// checkDir examines one directory's non-test Go files.
func checkDir(dir, rel string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, pkg := range pkgs {
		if pkg.Name == "main" && !strictDirs[rel] {
			// Commands still need a package comment but their internals
			// are not API surface.
			if !hasPackageDoc(pkg) {
				violations = append(violations,
					fmt.Sprintf("%s: package %s has no package doc comment", rel, pkg.Name))
			}
			continue
		}
		if !hasPackageDoc(pkg) {
			violations = append(violations,
				fmt.Sprintf("%s: package %s has no package doc comment", rel, pkg.Name))
		}
		if strictDirs[rel] {
			violations = append(violations, checkExported(fset, pkg)...)
		}
	}
	return violations, nil
}

// hasPackageDoc reports whether any file of the package carries a package
// doc comment.
func hasPackageDoc(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// checkExported lists exported declarations without doc comments.
func checkExported(fset *token.FileSet, pkg *ast.Package) []string {
	var violations []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		violations = append(violations,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if d.Recv != nil && !exportedRecv(d.Recv) {
					continue
				}
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			case *ast.GenDecl:
				violations = append(violations, checkGenDecl(d, report)...)
			}
		}
	}
	return violations
}

// checkGenDecl handles const/var/type declarations.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) []string {
	var violations []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			// A doc comment on the grouped decl covers the whole group.
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			kind := "var"
			if d.Tok == token.CONST {
				kind = "const"
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
	return violations
}

// exportedRecv reports whether a method receiver's base type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
