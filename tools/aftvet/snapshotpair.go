package main

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The snapshotpair analyzer keeps the checkpoint schema symmetric: a
// type that can export its durable state must also be able to take it
// back, and vice versa. One-sided types are how resume paths silently
// rot — a field gets added to the export, nothing restores it, and the
// kill-at-any-round guarantee quietly narrows. The export side is a
// method named Snapshot, ExportState, Export or State; the restore side
// is Restore, RestoreState, SetState, Resume or Inject, or a
// package-level Restore*/Resume* function returning the type (the
// experiments.RestoreCampaign shape).

// snapshotExportNames are method names that hand out durable state.
var snapshotExportNames = map[string]bool{
	"Snapshot": true, "ExportState": true, "Export": true, "State": true,
}

// snapshotRestoreNames are method names that accept durable state back.
var snapshotRestoreNames = map[string]bool{
	"Restore": true, "RestoreState": true, "SetState": true,
	"Resume": true, "Inject": true,
}

// runSnapshotPair checks every exported named type of the package.
func runSnapshotPair(p *Package, report reporter) {
	scope := p.Types.Scope()

	// Package-level restore constructors: Restore*/Resume* functions
	// whose results include a type of this package.
	restoredByFunc := map[*types.TypeName]string{}
	for _, name := range scope.Names() {
		fn, ok := scope.Lookup(name).(*types.Func)
		if !ok || !ast.IsExported(name) ||
			!(strings.HasPrefix(name, "Restore") || strings.HasPrefix(name, "Resume")) {
			continue
		}
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Results().Len(); i++ {
			if named := namedOf(sig.Results().At(i).Type()); named != nil && named.Obj().Pkg() == p.Types {
				restoredByFunc[named.Obj()] = name
			}
		}
	}

	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !ast.IsExported(name) || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue // the contract binds concrete state holders
		}
		var exports, methodRestores []string
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if !m.Exported() {
				continue
			}
			if snapshotExportNames[m.Name()] {
				exports = append(exports, m.Name())
			}
			if snapshotRestoreNames[m.Name()] {
				methodRestores = append(methodRestores, m.Name())
			}
		}
		sort.Strings(exports)
		sort.Strings(methodRestores)
		// A package-level Restore*/Resume* constructor satisfies the
		// restore side but creates no obligation of its own: the type it
		// returns may be a plain result, not a state holder.
		_, funcRestored := restoredByFunc[tn]
		switch {
		case len(exports) > 0 && len(methodRestores) == 0 && !funcRestored:
			report(tn.Pos(), "type %s exports state (%s) but has no restore counterpart (Restore/RestoreState/SetState/Resume or a package-level Restore%s); the checkpoint schema can drift one-sidedly",
				name, strings.Join(exports, ", "), name)
		case len(methodRestores) > 0 && len(exports) == 0:
			report(tn.Pos(), "type %s restores state (%s) but exports none (Snapshot/ExportState/State); resume can apply state no snapshot can produce",
				name, strings.Join(methodRestores, ", "))
		}
	}
}
