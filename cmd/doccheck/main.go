// Command doccheck verifies godoc completeness: every exported top-level
// identifier in the packages it is pointed at — types, functions, methods
// on exported types, consts, vars, plus exported interface methods (the
// API contract) — must carry a doc comment. Struct fields are exempt:
// requiring "ID is the ID"-style field comments produces noise, not
// documentation. CI runs it over every package (`make doc-check`):
//
//	doccheck $(go list -f '{{.Dir}}' ./...)
//
// It parses with go/ast only (no type checking, no build), skips _test.go
// files, and exits 1 listing every undocumented identifier as
// file:line: name.
//
// With -links it instead checks markdown cross-references: every relative
// link target in the given files (directories are scanned for *.md,
// non-recursive) must exist on disk, so renaming or deleting a doc page
// breaks CI instead of leaving dead links behind:
//
//	doccheck -links README.md docs
//
// http(s) and mailto links and same-file #anchors are skipped; a
// #fragment on a relative link is stripped before the existence check.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir> [...] | doccheck -links <markdown file or dir> [...]")
		os.Exit(2)
	}
	if args[0] == "-links" {
		runLinks(args[1:])
		return
	}
	var missing []string
	for _, dir := range args {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		for _, m := range missing {
			fmt.Println(m)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) missing doc comments\n", len(missing))
		os.Exit(1)
	}
}

// runLinks is the -links mode: it exits 1 listing every relative
// markdown link whose target file does not exist.
func runLinks(paths []string) {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck -links <markdown file or dir> [...]")
		os.Exit(2)
	}
	broken, err := checkLinks(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	if len(broken) > 0 {
		sort.Strings(broken)
		for _, b := range broken {
			fmt.Println(b)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d dead relative link(s)\n", len(broken))
		os.Exit(1)
	}
}

// linkRe matches the target of a markdown inline link or image,
// "](target)"; reference-style definitions are rare enough here not to
// warrant a full parser.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks scans each markdown file (directories non-recursively for
// *.md) and returns "file:line: dead link target" for every relative
// link that does not resolve to an existing file or directory.
func checkLinks(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
				files = append(files, filepath.Join(p, e.Name()))
			}
		}
	}
	var broken []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue // same-file anchor
				}
				resolved := filepath.Join(filepath.Dir(f), target)
				if _, err := os.Stat(resolved); err != nil {
					broken = append(broken, fmt.Sprintf("%s:%d: dead link %q", filepath.ToSlash(f), i+1, m[1]))
				}
			}
		}
	}
	return broken, nil
}

// checkDir parses every non-test .go file in dir (non-recursive, like a Go
// package) and returns "file:line: name" for each undocumented exported
// identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var missing []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				checkDecl(decl, report)
			}
		}
	}
	return missing, nil
}

// checkDecl reports undocumented exported identifiers introduced by one
// top-level declaration.
func checkDecl(decl ast.Decl, report func(token.Pos, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		// Methods count only on exported receiver types: an exported
		// method on an unexported type (an interface implementation) is
		// not part of the package's godoc surface.
		if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
			report(d.Pos(), funcName(d))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				// A doc comment on the grouped decl ("type ( ... )") or on
				// the spec itself both satisfy godoc.
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					report(s.Pos(), s.Name.Name)
				}
				if s.Name.IsExported() {
					checkTypeMembers(s, report)
				}
			case *ast.ValueSpec:
				// For const/var groups a group-level doc comment suffices;
				// otherwise each exported spec needs its own (s.Doc) or a
				// trailing line comment (s.Comment).
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						report(name.Pos(), name.Name)
					}
				}
			}
		}
	}
}

// checkTypeMembers reports undocumented exported methods of exported
// interface types — the contract callers implement against.
func checkTypeMembers(s *ast.TypeSpec, report func(token.Pos, string)) {
	switch t := s.Type.(type) {
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, name := range m.Names {
				if name.IsExported() {
					report(name.Pos(), s.Name.Name+"."+name.Name)
				}
			}
		}
	}
}

// receiverExported reports whether d is a plain function or a method on an
// exported named type.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	name := typeName(d.Recv.List[0].Type)
	return ast.IsExported(strings.TrimPrefix(name, "*"))
}

// funcName renders a method as "(T).Name" and a function as "Name".
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + typeName(d.Recv.List[0].Type) + ")." + d.Name.Name
}

// typeName renders the receiver type expression compactly.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	default:
		return "?"
	}
}
