package core

import (
	"context"
	"runtime"

	"extrapdnn/internal/obs"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/profile"
)

// ModelStream is the campaign loop: it models every entry src yields through
// parallel.Stream under cfg (bounded workers and in-flight window, input or
// completion order) and hands each outcome to emit. The library's
// ModelProfileStream, perfmodeler and the daemon's /v1/profile all run their
// campaigns through it, so each run records the same spans: one profile.run
// (workers, entries) and per entry one profile.entry (kernel, metric, error
// on failure) as the parent of core.model.
//
// Per-entry failures, panics included, reach emit with err set and do not
// stop the stream. The stream stops when ctx is done (ctx's error is
// returned), when src fails, or when emit returns an error; see
// parallel.Stream for the exact contracts.
func (m *Modeler) ModelStream(ctx context.Context, src profile.Source, cfg parallel.StreamConfig,
	emit func(i int, e profile.Entry, rep Report, err error) error) error {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	runCtx, runSpan := obs.StartSpan(ctx, "profile.run")
	emitted := 0
	if runSpan != nil {
		runSpan.SetInt("workers", int64(cfg.Workers))
		defer func() {
			runSpan.SetInt("entries", int64(emitted))
			runSpan.End()
		}()
	}
	return parallel.Stream(ctx, cfg, src.NextEntry,
		func(_ context.Context, _ int, e profile.Entry) (Report, error) {
			entryCtx, span := obs.StartSpan(runCtx, "profile.entry")
			if span != nil {
				span.SetString(obs.KernelAttr, e.Kernel)
				span.SetString("metric", e.Metric)
				defer span.End()
			}
			rep, err := m.ModelCtx(entryCtx, e.Set)
			if err != nil {
				span.SetString("error", err.Error())
			}
			return rep, err
		},
		func(i int, e profile.Entry, rep Report, err error) error {
			emitted++
			return emit(i, e, rep, err)
		})
}
