package sim

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
)

// runPoints is the batch collector over Stream: it drains the update
// channel, places each cell's result into its (point, trace) slot, and
// aggregates per point after the stream closes — always in (point,
// trace-index) order, so the output is bit-identical to the sequential
// path regardless of worker count, scheduling or emission order.
//
// With AllowPartial, failed cells leave nil result slots and runPoints
// returns the completed grid alongside a *PartialError listing every
// failure in (point, trace) order; per-point aggregates are skipped (nil),
// since an aggregate over a partial trace set would silently misrepresent
// the point.
func (r *Runner) runPoints(ctx context.Context, specs []PointSpec) ([][]*core.Result, []*core.Result, error) {
	results := make([][]*core.Result, len(specs))
	total := 0
	for i := range specs {
		results[i] = make([]*core.Result, len(specs[i].Traces))
		total += len(specs[i].Traces)
	}

	var firstErr error
	var failed []*CellError
	for u := range r.Stream(ctx, specs) {
		if u.Err != nil {
			if u.Point >= 0 {
				// Isolated cell failure (AllowPartial): record and keep
				// collecting.
				failed = append(failed, asCellError(u.Err))
				continue
			}
			if firstErr == nil {
				firstErr = u.Err
			}
			continue
		}
		results[u.Point][u.Trace] = u.Result
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	// The terminal update can be dropped when cancellation races the drain;
	// the context still records why the stream stopped short.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(failed) > 0 {
		sortCells(failed)
		return results, nil, &PartialError{Cells: failed, Total: total}
	}

	aggs := make([]*core.Result, len(specs))
	for i := range specs {
		aggs[i] = core.MergeResults(results[i])
	}
	return results, aggs, nil
}

// RunPoint simulates every trace at one operating point (fresh core,
// warm-up pass, measured pass per trace — or sharded sample windows when
// windowing is enabled) across the runner's pool and returns the per-trace
// results plus their aggregate. In partial mode a *PartialError comes back
// alongside the completed per-trace results (failed slots nil, aggregate
// nil).
func (r *Runner) RunPoint(ctx context.Context, cfg core.Config, traces []*trace.Trace) ([]*core.Result, *core.Result, error) {
	results, aggs, err := r.runPoints(ctx, []PointSpec{{Label: "point", Cfg: cfg, Traces: traces}})
	if err != nil {
		var pe *PartialError
		if errors.As(err, &pe) && len(results) == 1 {
			return results[0], nil, err
		}
		return nil, nil, err
	}
	return results[0], aggs[0], nil
}

// Sweep runs the suite for each voltage level in each mode on the runner's
// pool, collecting the level fold (StreamLevels) into a grid. The result is
// indexed [mode][voltage]. In partial mode, failed operating points are
// simply absent from the grid and a *PartialError comes back alongside the
// completed points: one lowest-trace-index cell per failed point, in point
// order, with Total counting points.
func (r *Runner) Sweep(ctx context.Context, traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts) (map[circuit.Mode]map[circuit.Millivolts]*Point, error) {
	out := make(map[circuit.Mode]map[circuit.Millivolts]*Point, len(modes))
	for _, mode := range modes {
		out[mode] = make(map[circuit.Millivolts]*Point, len(levels))
	}
	var failed []*CellError
	err := r.StreamLevels(ctx, traces, modes, levels,
		func(v circuit.Millivolts, pts map[circuit.Mode]*Point, fails map[circuit.Mode]*CellError) error {
			for m, p := range pts {
				out[m][v] = p
			}
			for _, ce := range fails {
				failed = append(failed, ce)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		sortCells(failed)
		return out, &PartialError{Cells: failed, Total: len(modes) * len(levels)}
	}
	return out, nil
}

// sortCells orders failed cells by (point, trace).
func sortCells(cells []*CellError) {
	slices.SortFunc(cells, func(a, b *CellError) int {
		return cmp.Or(cmp.Compare(a.Point, b.Point), cmp.Compare(a.Trace, b.Trace))
	})
}
