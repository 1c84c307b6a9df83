package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotState flags stateful fields of snapshotted structs that their
// Snapshot machinery never references. A struct is "snapshotted" when it
// has a method — any name, exported or not — taking a
// *psbox/internal/snapshot.Encoder parameter; from then on
// every field is part of the checkpoint contract: a field added later but
// not encoded silently drops state from the checkpoint, and the byte
// divergence only surfaces when a crash-and-resume run happens to disturb
// it. The analyzer exempts fields that cannot or need not be encoded
// directly:
//
//   - func-typed fields (closures are wiring, rebuilt by scenario
//     reconstruction), and
//   - fields whose element type itself has an Encoder-taking method (the
//     field is covered by delegation).
//
// Everything else must either appear in a file holding the struct's
// snapshot methods, or carry a reasoned directive:
//
//	//psbox:allow-snapshotstate <reason>
var SnapshotState = &Analyzer{
	Name: "snapshotstate",
	Doc: `flag fields of snapshotted structs (structs with a method taking a
*psbox/internal/snapshot.Encoder) that are not referenced in any file
containing those methods; unencoded fields silently fall out of the
checkpoint contract.`,
	Run: runSnapshotState,
}

// isSnapEnc reports whether t is *snapshot.Encoder.
func isSnapEnc(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "psbox/internal/snapshot" && obj.Name() == "Encoder"
}

// hasSnapParam reports whether the signature takes an Encoder.
func hasSnapParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isSnapEnc(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// elemType strips pointers, slices, arrays, maps, and channels down to
// the field's element type (for maps, the value type).
func elemType(t types.Type) types.Type {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Map:
			t = x.Elem()
		case *types.Chan:
			t = x.Elem()
		default:
			return t
		}
	}
}

// exemptField reports whether a field needs no direct reference: func
// typed, or delegated to an element type with its own snapshot method.
func exemptField(t types.Type) bool {
	e := elemType(t)
	if _, ok := e.Underlying().(*types.Signature); ok {
		return true
	}
	named, ok := e.(*types.Named)
	if !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); ok && hasSnapParam(sig) {
			return true
		}
	}
	return false
}

func runSnapshotState(pass *Pass) {
	// Map each snapshotted struct type to the files holding its snapshot
	// methods. Whole files, not just method bodies: the per-package
	// convention keeps snapshot code (including helpers like tagged-union
	// encoders) in one snapshot.go, and a field referenced by any code in
	// those files is part of the checkpoint machinery.
	snapFiles := make(map[*types.Named][]*ast.File)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok || !hasSnapParam(sig) {
				continue
			}
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				continue
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				continue
			}
			files := snapFiles[named]
			if len(files) == 0 || files[len(files)-1] != f {
				snapFiles[named] = append(files, f)
			}
		}
	}
	if len(snapFiles) == 0 {
		return
	}

	// Field objects referenced per file (both bare identifiers and
	// selector fields resolve through Info.Uses).
	fileRefs := make(map[*ast.File]map[types.Object]bool)
	refsOf := func(f *ast.File) map[types.Object]bool {
		if refs, ok := fileRefs[f]; ok {
			return refs
		}
		refs := make(map[types.Object]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := pass.Info.Uses[id].(*types.Var); ok && v.IsField() {
				refs[v] = true
			}
			return true
		})
		fileRefs[f] = refs
		return refs
	}

	for named, files := range snapFiles {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if exemptField(field.Type()) {
				continue
			}
			referenced := false
			for _, f := range files {
				if refsOf(f)[field] {
					referenced = true
					break
				}
			}
			if referenced {
				continue
			}
			pass.Reportf(field.Pos(),
				"field %s of snapshotted struct %s is not referenced by its Snapshot machinery; encode it or annotate why replay reconstructs it",
				field.Name(), named.Obj().Name())
		}
	}
}
