package serve

import (
	"context"

	"repro/internal/gpusim"
	"repro/internal/serve/cellplan"
)

// SetSimHook replaces s's engine run with run, so tests outside the
// package (a gateway over real shards) can hold cells deterministically.
func SetSimHook(s *Server, run func(ctx context.Context, cell cellplan.Cell) (gpusim.Stats, error)) {
	s.simHook = func(ctx context.Context, cell cellplan.Cell) outcome {
		st, err := run(ctx, cell)
		return outcome{stats: st, err: err}
	}
}
