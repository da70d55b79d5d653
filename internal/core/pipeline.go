package core

import (
	"context"

	"arcs/internal/obs"
)

// The construction pipeline is an explicit sequence of stages:
//
//	Ingest  — one sequential pass collecting axis statistics and the
//	          reservoir sample (order-dependent, so never parallel);
//	BinFit  — construct the axis binners from those statistics;
//	Count   — fill the count backend in a second pass (sequential, or
//	          sharded across workers).
//
// The Search and Emit halves of a run have the same stage shape but
// live on the run path (run.go: search → mine-final → verify-final),
// where their timings also land in Result.Phases.
type stage struct {
	name string
	// run does the work and returns the attributes its span ends with.
	run func(ctx context.Context) ([]obs.Attr, error)
}

// runStages executes the stages in order under parent: each gets its own
// child span and pprof phase label, polls ctx through the dataset
// layer's checkpoints, and aborts the pipeline on first failure with
// cancellations wrapped as RunError{Phase: "init"}.
func (s *System) runStages(ctx context.Context, parent obs.Span, stages []stage) error {
	for _, st := range stages {
		sp := parent.Child(st.name)
		var attrs []obs.Attr
		var err error
		s.labeled(st.name, func() { attrs, err = st.run(ctx) })
		if err != nil {
			sp.End()
			return initErr(err)
		}
		sp.End(attrs...)
	}
	return nil
}
