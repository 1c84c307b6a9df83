package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
)

// SnapshotDrift upgrades the checkpoint contract from "has snapshot
// methods that mention the field somewhere in the file" (snapshotstate)
// to "the methods are complete": for every type with signature-detected
// snapshot machinery — methods taking a *psbox/internal/snapshot.Encoder
// — each stateful field must be referenced by those methods themselves.
// A field that snapshotstate accepts because a helper in the same file
// touches it, but that the Snapshot method never encodes, is exactly the
// drift that breaks the replay-twin contract when a crash-and-resume run
// restores from a checkpoint missing that state.
//
// Coverage is the union of field references across every Encoder-taking
// method of the type, so delegating helpers that also take the Encoder
// count. Restore needs no coverage of its own: the checkpoint registry
// verifies a section by re-running the same Snapshot method.
//
// Stateful fields exclude what the checkpoint legitimately skips:
// func-typed fields (wiring, rebuilt by scenario reconstruction), fields
// whose element type carries its own snapshot machinery (back-pointers
// and sub-components covered by delegation), fields tagged
// `psbox:"config"`, and fields under a reasoned
// //psbox:allow-snapshotstate directive (one waiver covers both
// analyzers: a field excused from the checkpoint contract has no
// completeness obligation either).
var SnapshotDrift = &Analyzer{
	Name: "snapshotdrift",
	Doc: `flag stateful fields of snapshotted structs that the
Encoder-taking methods never encode; per-method coverage, where
snapshotstate accepts any reference in the same file.`,
	Run: runSnapshotDrift,
}

// snapRecv resolves a method declaration to its named struct receiver
// type when the method takes a *snapshot.Encoder.
func snapRecv(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil {
		return nil
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !hasSnapParam(sig) {
		return nil
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// configTagged reports whether a struct field is tagged `psbox:"config"`
// — configuration replayed from the scenario, not checkpointed state.
func configTagged(tag string) bool {
	return reflect.StructTag(tag).Get("psbox") == "config"
}

// encCall renders the Encoder method call that writes one basic-typed
// value, with the narrowing-free conversion the wire format expects, or
// "" when the type has no single-call encoding.
func encCall(t types.Type, val string) string {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch {
	case b.Kind() == types.Uint64:
		return "U64(" + val + ")"
	case b.Info()&types.IsUnsigned != 0:
		return "U64(uint64(" + val + "))"
	case b.Kind() == types.Int64:
		return "I64(" + val + ")"
	case b.Info()&types.IsInteger != 0:
		return "I64(int64(" + val + "))"
	case b.Kind() == types.Float64:
		return "F64(" + val + ")"
	case b.Info()&types.IsFloat != 0:
		return "F64(float64(" + val + "))"
	case b.Kind() == types.Bool:
		return "Bool(" + val + ")"
	case b.Kind() == types.String:
		return "Str(" + val + ")"
	}
	return ""
}

// encodeLineFix builds the edit appending `enc.X(recv.field)` as the last
// line of an Encoder-taking method body. Requires named receiver and
// encoder parameters, a basic-typed field, and the closing brace on its
// own line.
func (p *Pass) encodeLineFix(m *ast.FuncDecl, field *types.Var) []SuggestedFix {
	if m.Recv == nil || len(m.Recv.List) == 0 || len(m.Recv.List[0].Names) == 0 {
		return nil
	}
	recv := m.Recv.List[0].Names[0].Name
	if recv == "_" {
		return nil
	}
	encName := ""
	for _, pf := range m.Type.Params.List {
		for _, nm := range pf.Names {
			def := p.Info.Defs[nm]
			if def == nil {
				continue
			}
			ptr, ok := def.Type().(*types.Pointer)
			if !ok {
				continue
			}
			named, ok := ptr.Elem().(*types.Named)
			if ok && named.Obj().Name() == "Encoder" && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "psbox/internal/snapshot" {
				encName = nm.Name
			}
		}
	}
	if encName == "" || encName == "_" {
		return nil
	}
	call := encCall(field.Type(), recv+"."+field.Name())
	if call == "" {
		return nil
	}
	start, ind, ok := p.lineStart(m.Body.Rbrace)
	if !ok {
		return nil
	}
	if bracePos := p.Fset.Position(m.Body.Rbrace); bracePos.Column-1 != len(ind) {
		return nil // single-line body: the brace shares its line with code
	}
	line := fmt.Sprintf("%s\t%s.%s\n", ind, encName, call)
	filename := p.Fset.Position(m.Body.Rbrace).Filename
	return []SuggestedFix{{
		Message: fmt.Sprintf("encode %s in %s", field.Name(), m.Name.Name),
		Edits:   []TextEdit{{File: filename, Start: start, End: start, New: line}},
	}}
}

func runSnapshotDrift(pass *Pass) {
	// Collect every Encoder-taking method per named struct type in this
	// package.
	methods := make(map[*types.Named][]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if named := snapRecv(pass.Info, fd); named != nil {
				methods[named] = append(methods[named], fd)
			}
		}
	}

	for named, ms := range methods {
		st := named.Underlying().(*types.Struct)

		cover := make(map[types.Object]bool)
		for _, m := range ms {
			ast.Inspect(m.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := pass.Info.Uses[id].(*types.Var); ok && v.IsField() {
						cover[v] = true
					}
				}
				return true
			})
		}

		// The first Encoder-taking method in declaration order is where a
		// suggested fix appends a missing encode line.
		first := ms[0]
		for _, m := range ms {
			if m.Pos() < first.Pos() {
				first = m
			}
		}

		// Fields in declaration order, one finding each.
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Name() == "_" || exemptField(field.Type()) || configTagged(st.Tag(i)) {
				continue
			}
			if pass.allowedFor(SnapshotState.Name, field.Pos()) || cover[field] {
				continue
			}
			// A basic-typed field has a mechanical remedy: append the
			// encode call to the first Snapshot method. Everything else
			// falls back to a reviewable waiver stub.
			fixes := pass.encodeLineFix(first, field)
			if fixes == nil {
				fixes = pass.directiveStubFix(field.Pos())
			}
			pass.Report(field.Pos(),
				fmt.Sprintf("field %s of snapshotted struct %s is not encoded by its Encoder-taking methods; checkpoint state has drifted from the struct",
					field.Name(), named.Obj().Name()),
				fixes...)
		}
	}
}
