package sim

// The same import under an allow directive draws no diagnostic.

import "sync" //repolint:allow sync -- golden test of the escape hatch

var _ sync.Once
