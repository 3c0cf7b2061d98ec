package sim

// A deterministic package that imports sync is reported: its stack is
// owned by one goroutine and needs no locks.

import "sync" // want `sync: deterministic package repro/internal/sim imports sync`

var _ sync.Locker
