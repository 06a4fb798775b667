package extrapdnn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"extrapdnn/internal/design"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/profile"
)

// Application profiles: complete measurement campaigns with one measurement
// set per kernel, the shape in which instrumented applications deliver data.
type (
	// Profile is a complete application measurement campaign.
	Profile = profile.Profile
	// ProfileEntry is the measurements of one kernel and metric.
	ProfileEntry = profile.Entry
	// ProfileSource yields profile entries one at a time (io.EOF at the end);
	// it is the input of the streaming campaign pipeline.
	ProfileSource = profile.Source
	// ProfileScanner streams profile entries from disk with O(1) memory per
	// campaign, accepting both the JSONL stream format and the legacy
	// single-object array format.
	ProfileScanner = profile.Scanner
)

// ReadProfile parses and validates an application profile in either format
// cmd/appsim writes (Profile.Write's JSON or the -jsonl stream). The whole
// profile is materialized; for large campaigns prefer NewProfileScanner.
func ReadProfile(r io.Reader) (*Profile, error) {
	return profile.Read(r)
}

// NewProfileScanner opens a streaming profile reader over r. The scanner
// decodes (and sanitizes, like ReadProfile) one entry at a time, so a
// campaign of any size is modeled in O(MaxInFlight) memory when fed to
// ModelProfileStream.
func NewProfileScanner(r io.Reader) (*ProfileScanner, error) {
	return profile.NewScanner(r)
}

// ProfileEntries adapts an in-memory entry slice into a ProfileSource for
// ModelProfileStream. No validation is applied.
func ProfileEntries(entries []ProfileEntry) ProfileSource {
	return profile.Entries(entries)
}

// StreamOptions tunes ModelProfileStream.
type StreamOptions struct {
	// Workers bounds the concurrently modeled entries (<= 0 means the
	// modeler's Options.Workers, then GOMAXPROCS).
	Workers int
	// MaxInFlight bounds the entries pulled from the source but not yet
	// emitted — queued, training, or held for in-order delivery (<= 0 means
	// 2*Workers). Together with a streaming source this is the campaign's
	// memory bound: at most MaxInFlight measurement sets are live at once.
	MaxInFlight int
	// Ordered delivers reports in input order through a bounded reorder
	// buffer; the default is completion order (lowest latency). Checkpoint
	// writers want Ordered so the output file is always a clean prefix of
	// the input.
	Ordered bool
}

// StreamReport is one streamed campaign result: the profile report plus the
// entry's position in the input stream.
type StreamReport struct {
	// Index is the entry's 0-based position in the source stream.
	Index int
	ProfileReport
}

// ModelProfileStream models a campaign incrementally: entries are pulled from
// src one at a time (a ProfileScanner, a checkpoint Filter, or an in-memory
// adaptor), modeled with bounded concurrency, and handed to emit as they
// complete — in completion order, or input order with opts.Ordered. At most
// opts.MaxInFlight entries are in flight, so campaign memory is
// O(MaxInFlight) regardless of campaign size. Because Model is a pure
// function of each entry's measurement set, the reports are bit-identical to
// ModelProfile at any worker count and in-flight bound.
//
// Per-entry failures (including panics, isolated into *parallel.PanicError)
// are delivered through emit with a nil Report and the error; they do not
// stop the stream. The pipeline stops early when ctx is canceled (in-flight
// entries drain, then ctx.Err() is returned), when src fails (its error is
// returned after the in-flight entries drain), or when emit returns a
// non-nil error (returned immediately; with opts.Ordered nothing is emitted
// after the failure, keeping emit-side checkpoint files a clean prefix).
// ModelProfileStream returns nil only when every entry of src was modeled
// and emitted.
//
// All entries share the modeler's adaptation cache exactly like
// ModelProfile: matching task signatures pay a single domain adaptation,
// and concurrent misses coalesce. The loop itself is the shared campaign
// pipeline of internal/core (the one behind perfmodeler and modelerd too).
func (m *AdaptiveModeler) ModelProfileStream(ctx context.Context, src ProfileSource, opts StreamOptions, emit func(StreamReport) error) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = m.workers
	}
	return m.inner.ModelStream(ctx, src,
		parallel.StreamConfig{Workers: workers, MaxInFlight: opts.MaxInFlight, Ordered: opts.Ordered},
		func(index int, e ProfileEntry, rep Report, err error) error {
			pr := ProfileReport{Kernel: e.Kernel, Metric: e.Metric, Err: err}
			if err == nil {
				pr.Report = &rep
			}
			return emit(StreamReport{Index: index, ProfileReport: pr})
		})
}

// ModelProfile models every entry of an application profile with the
// adaptive modeler and returns the reports in entry order. Entries that fail
// to model carry a nil report and the error; one unmodelable kernel never
// hides the results of the others, but the flattened ProfileError of the
// failures is returned alongside the full report slice so callers cannot
// mistake a partial campaign for a clean one. Entries are modeled
// concurrently with the worker count configured in Options.Workers (default
// GOMAXPROCS); because Model is a pure function of each entry's measurement
// set, the reports are bit-identical regardless of the worker count.
//
// All entries share the modeler's adaptation cache: kernels whose task
// signatures match (same experiment layout, repetition count and quantized
// noise bucket — the common case inside one application profile) pay a
// single domain adaptation between them, and concurrent misses on one
// signature coalesce into one training run. AdaptCacheStats reports the
// resulting hit/miss counts.
func (m *AdaptiveModeler) ModelProfile(p *Profile) ([]ProfileReport, error) {
	return m.ModelProfileWorkers(p, m.workers)
}

// ModelProfileWorkers is ModelProfile with an explicit worker count
// (<= 0 means GOMAXPROCS), overriding Options.Workers.
func (m *AdaptiveModeler) ModelProfileWorkers(p *Profile, workers int) ([]ProfileReport, error) {
	return m.ModelProfileWorkersCtx(context.Background(), p, workers)
}

// ModelProfileCtx is ModelProfile with cancellation (see
// ModelProfileWorkersCtx).
func (m *AdaptiveModeler) ModelProfileCtx(ctx context.Context, p *Profile) ([]ProfileReport, error) {
	return m.ModelProfileWorkersCtx(ctx, p, m.workers)
}

// ModelProfileWorkersCtx is ModelProfileWorkers with cancellation. It is a
// thin wrapper over ModelProfileStream: the validated entries stream through
// the bounded pipeline in input order and land back in an entry-indexed
// slice, so the reports are bit-identical to the streaming path.
//
// Once ctx is done, no further entries are dispatched, in-flight entries
// stop at their next training-epoch boundary, and the partial reports are
// returned together with ctx's error — entries that never ran carry ctx's
// error as their per-entry Err. When ctx is NOT canceled but some entries
// failed, the flattened ProfileError of the failures is returned alongside
// the full report slice (errors.Is/As see every cause); a panicking entry
// degrades into a per-entry *parallel.PanicError instead of crashing the
// campaign. The error is nil only when every entry modeled cleanly.
func (m *AdaptiveModeler) ModelProfileWorkersCtx(ctx context.Context, p *Profile, workers int) ([]ProfileReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]ProfileReport, len(p.Entries))
	filled := make([]bool, len(p.Entries))
	streamErr := m.ModelProfileStream(ctx, profile.Entries(p.Entries),
		StreamOptions{Workers: workers, Ordered: true},
		func(r StreamReport) error {
			out[r.Index] = r.ProfileReport
			filled[r.Index] = true
			return nil
		})
	// Entries the canceled pipeline never pulled (or pulled but dropped
	// before dispatch) carry ctx's error, matching the batch contract.
	for i, e := range p.Entries {
		if !filled[i] {
			out[i] = ProfileReport{Kernel: e.Kernel, Metric: e.Metric, Err: ctx.Err()}
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if streamErr != nil {
		return out, streamErr
	}
	return out, ProfileError(out)
}

// ProfileReport is the outcome of modeling one profile entry.
type ProfileReport struct {
	Kernel string
	Metric string
	Report *Report
	Err    error
}

// ProfileError flattens the per-entry failures of a profile run into one
// structured multi-error naming each failed kernel (errors.Join semantics:
// errors.Is/As see every cause), or nil when every entry modeled. Use it to
// decide process exit codes after a partially failed campaign.
func ProfileError(reports []ProfileReport) error {
	var errs []error
	for _, r := range reports {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", r.Kernel, r.Metric, r.Err))
		}
	}
	return errors.Join(errs...)
}

// Experiment design: planning which measurement points to run.
type (
	// Design is a planned set of measurement points with repetitions.
	Design = design.Design
	// CostModel estimates campaign cost in core-hours.
	CostModel = design.CostModel
)

// FullGridDesign plans the cartesian product of all parameter values — the
// thorough (and expensive) campaign layout.
func FullGridDesign(values [][]float64, reps int) Design {
	return design.FullGrid(values, reps)
}

// CrossingLinesDesign plans the cheapest valid layout: one measurement line
// per parameter at the lowest values of the other parameters, plus one
// interaction point so additive and multiplicative parameter effects can be
// distinguished.
func CrossingLinesDesign(values [][]float64, reps int) (Design, error) {
	return design.CrossingLines(values, reps, true)
}
