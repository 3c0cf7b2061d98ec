package repolint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Legacycodec flags references to the deprecated reflective codec entry
// points from production code outside internal/codec. Encode, Decode,
// and DecodeMessage predate the schema and MsgView planes: they walk
// dynamically typed Value trees and materialize every field on the
// heap, which is exactly the per-message cost the compiled-schema
// encoders and zero-copy views were built to remove. The functions stay
// exported for the reflective tooling surface (LTS exploration, test
// fixtures), so deprecation markers alone cannot stop new production
// call sites from creeping back in — this check does.
var Legacycodec = &analysis.Analyzer{
	Name:     "legacycodec",
	Doc:      "flag deprecated codec.Encode/Decode/DecodeMessage uses outside internal/codec (check: legacycodec)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runLegacycodec,
}

// codecPkgPath is the package whose deprecated surface this check
// guards; references from inside it (and its tests anywhere) stay
// legal.
const codecPkgPath = "repro/internal/codec"

// legacyCodecFuncs are the deprecated package-level entry points. The
// streaming and buffer-reuse forms (DecodePrefix, Append) are not
// legacy: they are the primitives the modern planes are built from.
var legacyCodecFuncs = map[string]string{
	"Encode":        "encode through a compiled schema (codec.CompileSchema + Encoder), or codec.Append for one-off dynamic values",
	"Decode":        "read through the zero-copy view plane (codec.ParseMessage / MsgView), or codec.DecodePrefix for streaming callers",
	"DecodeMessage": "call codec.ParseMessage and read fields through the MsgView, materializing with (MsgView).Fields only where needed",
}

func runLegacycodec(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if path == codecPkgPath || strings.HasPrefix(path, codecPkgPath+"/") {
		return nil, nil
	}
	allows := CollectAllows(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		if isTestFile(pass.Fset, sel.Pos()) {
			return // tests may exercise the deprecated surface directly
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != codecPkgPath {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return
		}
		hint, legacy := legacyCodecFuncs[fn.Name()]
		if !legacy {
			return
		}
		allows.Report(pass, sel.Pos(), "legacycodec",
			"codec.%s is deprecated; %s", fn.Name(), hint)
	})
	return nil, nil
}
