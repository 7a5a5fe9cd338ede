// Command docslint enforces the documentation bar on selected
// packages: every exported identifier — functions, types, methods on
// exported types, and const/var groups — must carry a doc comment,
// every package must have a package comment, and a doc comment must
// open with the name of the identifier it documents (a leading "A",
// "An" or "The" is allowed), so godoc renders a sentence and stale
// comments that survived a rename get caught. Grouped const/var/type
// declarations documented once at the group level are exempt from the
// naming rule — the idiomatic way to document enum blocks. It is a
// stdlib-only subset of what golint used to check, wired into
// `make docs-lint`.
//
// Usage:
//
//	docslint ./internal/obs ./internal/trace
//
// Exit status is 1 if any identifier is undocumented or misdocumented.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docslint <package-dir>...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		n, err := lintDir(strings.TrimPrefix(dir, "./"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d documentation issue(s)\n", bad)
		os.Exit(1)
	}
}

// lintDir parses one package directory (tests excluded) and reports
// every undocumented or misdocumented exported identifier. Returns
// the finding count.
func lintDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	complain := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s %s is exported but undocumented\n",
			filepath.ToSlash(p.Filename), p.Line, what, name)
		bad++
	}
	misnamed := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s %s: doc comment does not start with %q\n",
			filepath.ToSlash(p.Filename), p.Line, what, name, name)
		bad++
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// Position the finding on any file of the package.
			for _, f := range pkg.Files {
				complain(f.Package, "package", pkg.Name)
				break
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					recv := receiverType(d)
					what, name := "func", d.Name.Name
					if recv != "" {
						if !ast.IsExported(recv) {
							continue
						}
						what, name = "method", recv+"."+d.Name.Name
					}
					if d.Doc == nil {
						complain(d.Pos(), what, name)
					} else if !docNames(d.Doc, d.Name.Name) {
						misnamed(d.Pos(), what, name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, complain, misnamed)
				}
			}
		}
	}
	return bad, nil
}

// lintGenDecl checks a type/const/var declaration. A doc comment on
// the grouped declaration covers every spec inside it (the idiomatic
// way to document enum blocks) and is exempt from the naming rule
// unless the group holds a single spec — then it documents exactly
// one identifier and must open with its name. Otherwise each exported
// spec needs its own comment, name-checked when it is a doc comment
// (trailing line comments are free-form).
func lintGenDecl(d *ast.GenDecl, complain, misnamed func(token.Pos, string, string)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	if d.Doc != nil {
		if len(d.Specs) != 1 {
			return
		}
		if what, name, pos, ok := specIdent(d, d.Specs[0]); ok && !docNames(d.Doc, name) {
			misnamed(pos, what, name)
		}
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if s.Doc == nil && s.Comment == nil {
				complain(s.Pos(), "type", s.Name.Name)
			} else if s.Doc != nil && !docNames(s.Doc, s.Name.Name) {
				misnamed(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				if s.Doc == nil && s.Comment == nil {
					complain(name.Pos(), d.Tok.String(), name.Name)
				} else if s.Doc != nil && len(s.Names) == 1 && !docNames(s.Doc, name.Name) {
					misnamed(name.Pos(), d.Tok.String(), name.Name)
				}
			}
		}
	}
}

// specIdent extracts the single documented identifier of a one-spec
// declaration, reporting ok=false for unexported or multi-name specs.
func specIdent(d *ast.GenDecl, spec ast.Spec) (what, name string, pos token.Pos, ok bool) {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		if s.Name.IsExported() {
			return "type", s.Name.Name, s.Pos(), true
		}
	case *ast.ValueSpec:
		if len(s.Names) == 1 && s.Names[0].IsExported() {
			return d.Tok.String(), s.Names[0].Name, s.Names[0].Pos(), true
		}
	}
	return "", "", token.NoPos, false
}

// docNames reports whether a doc comment opens with the identifier it
// documents, allowing a leading article ("A", "An", "The") before the
// name.
func docNames(doc *ast.CommentGroup, name string) bool {
	words := strings.Fields(doc.Text())
	if len(words) == 0 {
		return false
	}
	if strings.TrimRight(words[0], ".,:;") == name {
		return true
	}
	if words[0] == "A" || words[0] == "An" || words[0] == "The" {
		return len(words) > 1 && strings.TrimRight(words[1], ".,:;") == name
	}
	return false
}

// receiverType returns the bare receiver type name of a method, or ""
// for a plain function.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
