package sim

// Test files may import sync (to drive concurrent workers, for
// example): no diagnostic.

import "sync/atomic"

var _ atomic.Int64
