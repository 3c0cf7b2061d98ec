package bandfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBandfile drives arbitrary source through Parse, the entry point
// behind cmd/sweep -bandfile. Parse must never panic, every error it
// returns must be a *SyntaxError carrying a position, and every accepted
// file must declare at least one band. Run bounded in CI (see
// .github/workflows/ci.yml, fuzz job) and by make fuzz.
func FuzzBandfile(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "bands", "*.band"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("")
	f.Add("band b { clients 1, 2 loss 0.5 }")
	f.Add("band c { kind churn mttr 50 ms, 1 s crash .5 rebind none deadline 8 s }")
	f.Add(`band "unterminated`)
	f.Add("band d { cycles 99999999999999999999 }")

	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q) error %v (%T) is not a *SyntaxError", src, err, err)
			}
			if se.Line < 1 || se.Col < 1 {
				t.Fatalf("Parse(%q) error %v has no position", src, err)
			}
			return
		}
		if file == nil || len(file.Bands) == 0 {
			t.Fatalf("Parse(%q) accepted a file with no bands", src)
		}
	})
}
