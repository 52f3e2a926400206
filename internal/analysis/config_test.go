package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

// configAllow lists the exported fields of internal/ Config types that no
// program code sets and that stay settable anyway, each with its reason:
// a test needs another value to reach a state it checks. An entry that no
// longer excuses anything fails the test. The budget is 15 entries, the
// count in use.
var configAllow = map[string]string{
	"repro/internal/serve.Config.MaxBatch":        "batcher tests split or serialize calls at a cap of 1 or 4",
	"repro/internal/serve.Config.Workers":         "batcher tests bound the workers to park or race them",
	"repro/internal/serve.Config.QueueCap":        "backpressure tests fill a one-item queue",
	"repro/internal/serve.Config.CacheEntries":    "cache and memo tests force an eviction",
	"repro/internal/serve.Config.MaxJobs":         "the tier contract test parks the one job slot to get a typed overloaded",
	"repro/internal/serve.Config.HistoryInterval": "the sickle-top end-to-end tests sample every 20 ms",
	"repro/internal/shard.Config.ProbeEvery":      "failover and membership tests probe every 25 ms",
	"repro/internal/shard.Config.HistoryInterval": "the sickle-top end-to-end tests sample every 20 ms",
	"repro/internal/cfd3d.Config.Nu":              "TestViscousDecay needs a viscous run (ν 0.05)",
	"repro/internal/cfd3d.Config.Noise":           "the decay and buoyancy tests start from other perturbation amplitudes",
	"repro/internal/sickle.Fig8Config.Datasets":   "TestGoldenFigures pins Fig. 8 on one dataset so tier-1 trains it in seconds",
	"repro/internal/sickle.Fig8Config.Epochs":     "TestGoldenFigures pins Fig. 8 at 3 epochs",
	"repro/internal/sickle.Fig8Config.CubeEdge":   "TestGoldenFigures pins Fig. 8 on 8³ cubes",
	"repro/internal/sickle.Fig9Config.Epochs":     "TestGoldenFigures pins Fig. 9 at 2 epochs",
	"repro/internal/sickle.Fig9Config.CubeEdge":   "TestGoldenFigures pins Fig. 9 on 8³ cubes",
}

// TestConfigFieldsSet is the settings rule: every exported field of an
// exported internal/ struct named Config or …Config is set by program code
// (internal/, cmd/, examples/ or the bench module) — a composite-literal
// key or a plain assignment (= or :=, not op= or ++) — somewhere other
// than a default fill. A default
// fill is the type's own defaults method, or an assignment under an if
// whose condition reads the same field. A field only tests set becomes a
// constant, or is listed in configAllow with a reason.
func TestConfigFieldsSet(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := program()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := benchModule()
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]string{} // "pkg.Type.Field" -> where it is declared
	set := map[string]bool{}
	for _, p := range append(bench, pkgs...) {
		if strings.HasPrefix(p.ImportPath, "repro/internal/") {
			scope := p.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						pos := p.Fset.Position(f.Pos())
						rel, _ := filepath.Rel(root, pos.Filename)
						declared[p.ImportPath+"."+name+"."+f.Name()] = filepath.ToSlash(rel) + ":" + strconv.Itoa(pos.Line)
					}
				}
			}
		}
		for _, f := range p.Files {
			for _, key := range configSets(p, f) {
				set[key] = true
			}
		}
	}

	excused := map[string]bool{}
	var unset []string
	for key, pos := range declared {
		if set[key] {
			continue
		}
		if _, ok := configAllow[key]; ok {
			excused[key] = true
			continue
		}
		unset = append(unset, pos+": "+key)
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d Config fields are set by no program code outside a default fill — make each a constant, "+
			"or add it to configAllow with a reason:\n  %s", len(unset), strings.Join(unset, "\n  "))
	}
	for key, reason := range configAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("configAllow[%q] has no reason", key)
		}
		if !excused[key] {
			t.Errorf("configAllow[%q] excuses nothing any more: remove it", key)
		}
	}
	if len(configAllow) > 15 {
		t.Errorf("configAllow has %d entries; the budget is 15", len(configAllow))
	}
}

// configSets returns the "pkg.Type.Field" key of every struct field f sets
// outside a default fill.
func configSets(p *load.Package, f *ast.File) []string {
	// fieldKey names the field a selector selects, by the named struct
	// that declares it (through embedding too); "" for anything else.
	fieldKey := func(e ast.Expr) string {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return ""
		}
		t := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			t = deref(t).Underlying().(*types.Struct).Field(i).Type()
		}
		return typeKey(deref(t), sel.Sel.Name)
	}

	// A default fill: the body of a defaults method, keyed by its receiver
	// type, or the body of an if whose condition reads a field.
	type fill struct {
		lo, hi token.Pos
		keys   map[string]bool // nil: every field of owner
		owner  string
	}
	var fills []fill
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Name.Name == "defaults" && n.Recv != nil && n.Body != nil {
				recv := p.Info.Defs[n.Name].(*types.Func).Type().(*types.Signature).Recv()
				fills = append(fills, fill{lo: n.Body.Pos(), hi: n.Body.End(), owner: typeKey(deref(recv.Type()), "")})
			}
		case *ast.IfStmt:
			keys := map[string]bool{}
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if e, ok := c.(ast.Expr); ok {
					if k := fieldKey(e); k != "" {
						keys[k] = true
					}
				}
				return true
			})
			fills = append(fills, fill{lo: n.Body.Pos(), hi: n.Body.End(), keys: keys})
		}
		return true
	})
	filled := func(pos token.Pos, key string) bool {
		for _, fl := range fills {
			if pos < fl.lo || pos >= fl.hi {
				continue
			}
			if fl.keys[key] || fl.keys == nil && strings.HasPrefix(key, fl.owner+".") {
				return true
			}
		}
		return false
	}

	var keys []string
	ast.Inspect(f, func(n ast.Node) bool {
		var lhs []ast.Expr
		switch n := n.(type) {
		case *ast.CompositeLit:
			if t := p.Info.Types[n].Type; t != nil {
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if k := typeKey(deref(t), id.Name); k != "" {
								keys = append(keys, k)
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			// A compound assignment (op=) only rewrites a value someone
			// else set, so it sets nothing; nor does ++ or --.
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				lhs = n.Lhs
			}
		}
		for _, e := range lhs {
			if k := fieldKey(e); k != "" && !filled(e.Pos(), k) {
				keys = append(keys, k)
			}
		}
		return true
	})
	return keys
}

// typeKey is "pkg.Type.field" for a field of a named struct type, or
// "pkg.Type" when field is ""; "" for an unnamed or non-struct type.
func typeKey(t types.Type, field string) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if field != "" {
		key += "." + field
	}
	return key
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
