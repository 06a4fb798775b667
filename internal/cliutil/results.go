package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"extrapdnn/internal/core"
	"extrapdnn/internal/profile"
)

// Incremental campaign results. A streaming campaign writes one JSONL line
// per modeled (kernel, metric) entry as it completes, in input order; the
// same file doubles as the checkpoint for -resume, so a long campaign killed
// at hour three restarts at hour three instead of hour zero. Because every
// model report is a pure function of its entry's measurement set, a resumed
// run appends lines byte-identical to the ones an uninterrupted run would
// have written.

// ErrInterrupted marks an entry whose modeling was cut short by cancellation
// (timeout or signal). A ResultWriter returns it instead of writing the
// entry, halting the ordered stream so the results file stays a clean prefix
// of the input — the property the resume path depends on. errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) hold, so
// ExitCode and CampaignExitCode map it to ExitTimeout.
var ErrInterrupted = &interruptedError{}

type interruptedError struct{ cause error }

func (e *interruptedError) Error() string {
	if e.cause == nil {
		return "campaign interrupted"
	}
	return fmt.Sprintf("campaign interrupted: %v", e.cause)
}

// Is makes every interruptedError match ErrInterrupted and its cancellation
// cause, whichever the caller asks about.
func (e *interruptedError) Is(target error) bool {
	if _, ok := target.(*interruptedError); ok {
		return true
	}
	return errors.Is(e.cause, target)
}

func (e *interruptedError) Unwrap() error { return e.cause }

// ResultLine is one campaign result in the incremental JSONL format. All
// fields derive purely from the entry's measurement set, so the line for a
// given entry is byte-identical across runs — the invariant behind
// checkpoint/resume.
type ResultLine struct {
	Kernel string `json:"kernel"`
	Metric string `json:"metric,omitempty"`
	// Model is the selected model function in its canonical string form.
	Model string  `json:"model,omitempty"`
	SMAPE float64 `json:"smape_pct,omitempty"`
	Noise float64 `json:"noise_global,omitempty"`
	// Selected names the winning modeler ("dnn" or "regression").
	Selected string `json:"selected,omitempty"`
	// Fallback records degraded modeling (pretrained/regression fallback).
	// Divergence and degradation are functions of the signature-derived
	// adaptation seed, so the label is stable across runs. The adaptation
	// attempt count is deliberately NOT recorded: it reads 0 on a cache hit
	// and N on a fresh adaptation, which depends on execution history and
	// would break resume byte-identity (perfmodeler -v reports it instead).
	Fallback string `json:"fallback,omitempty"`
	// Error records a failed entry (per-entry failures are results too: a
	// resumed run must not retry a kernel that deterministically fails).
	Error string `json:"error,omitempty"`
	// RequestID is set ONLY by modelerd on kernel-less trailer lines (stream
	// failures) when its access log is enabled, correlating the trailer with
	// the daemon's access-log line. Kernel result lines never carry it —
	// trailers never reach results files, so resume byte-identity holds.
	RequestID string `json:"request_id,omitempty"`
}

// NewResultLine maps one modeled profile entry to its result line: the one
// mapping behind perfmodeler -out-jsonl and the daemon's /v1/profile stream,
// so local and remote results files are byte-identical line by line. A
// failed entry carries only its name and err's text.
func NewResultLine(e profile.Entry, rep core.Report, err error) ResultLine {
	if err != nil {
		return ResultLine{Kernel: e.Kernel, Metric: e.Metric, Error: err.Error()}
	}
	line := ResultLine{
		Kernel:   e.Kernel,
		Metric:   e.Metric,
		Model:    fmt.Sprint(rep.Model.Model),
		SMAPE:    rep.Model.SMAPE,
		Noise:    rep.Noise.Global,
		Selected: "regression",
	}
	if rep.SelectedDNN {
		line.Selected = "dnn"
	}
	if rep.Resilience.Fallback != core.FallbackNone {
		line.Fallback = rep.Resilience.Fallback.String()
	}
	return line
}

// ResilienceNote is the suffix a campaign table row gets when its model came
// from a degraded path or a retried adaptation; empty for a clean run.
func ResilienceNote(r core.Resilience) string {
	if r.Fallback != core.FallbackNone {
		return fmt.Sprintf("  [degraded: %s fallback, %d adaptation attempt(s)]", r.Fallback, r.AdaptAttempts)
	}
	if r.Outcome() == core.OutcomeRetried {
		return fmt.Sprintf("  [recovered: %d adaptation attempts]", r.AdaptAttempts)
	}
	return ""
}

// ResultWriter appends ResultLines to a JSONL results/checkpoint stream.
// Lines are written unbuffered (one Write syscall per line through
// json.Encoder), so every completed line is durable the moment WriteResult
// returns.
type ResultWriter struct {
	enc   *json.Encoder
	count int
}

// NewResultWriter starts writing results to w (typically a file opened with
// O_APPEND when resuming).
func NewResultWriter(w io.Writer) *ResultWriter {
	return &ResultWriter{enc: json.NewEncoder(w)}
}

// WriteResult appends one line. entryErr is the entry's modeling error, if
// any: a cancellation error is not a result — the entry would have modeled
// fine in a longer run — so instead of writing it, WriteResult returns
// ErrInterrupted (wrapping entryErr) to halt the stream with the file ending
// on the last genuinely completed entry. Other entry errors are recorded in
// the line's Error field and written normally.
func (w *ResultWriter) WriteResult(line ResultLine, entryErr error) error {
	if entryErr != nil {
		if errors.Is(entryErr, context.Canceled) || errors.Is(entryErr, context.DeadlineExceeded) {
			return &interruptedError{cause: entryErr}
		}
		line.Error = entryErr.Error()
	}
	if err := w.enc.Encode(line); err != nil {
		return fmt.Errorf("write result line %d: %w", w.count, err)
	}
	w.count++
	return nil
}

// Count returns the number of lines written.
func (w *ResultWriter) Count() int { return w.count }

// CheckpointKey is the done-set key of one profile entry, matching the
// profile package's duplicate-detection key.
func CheckpointKey(kernel, metric string) string { return kernel + "\x00" + metric }

// ReadCheckpoint parses an existing results file into the set of completed
// entries for -resume. It returns the done-set keyed by CheckpointKey and
// the line count. A malformed line is an error: the checkpoint contract is
// that interrupted runs end cleanly (ResultWriter never writes a torn line
// on cancellation), so corruption means the file is not a checkpoint.
func ReadCheckpoint(r io.Reader) (done map[string]bool, lines int, err error) {
	done = map[string]bool{}
	dec := json.NewDecoder(r)
	for dec.More() {
		var line ResultLine
		if err := dec.Decode(&line); err != nil {
			return nil, lines, fmt.Errorf("checkpoint line %d: %w", lines, err)
		}
		if line.Kernel == "" {
			return nil, lines, fmt.Errorf("checkpoint line %d: no kernel name", lines)
		}
		done[CheckpointKey(line.Kernel, line.Metric)] = true
		lines++
	}
	return done, lines, nil
}

// CampaignExitCode maps a campaign outcome to the shared exit-code
// convention: a cancellation error (including ErrInterrupted) outranks
// everything at ExitTimeout — the missing entries were never tried; any
// other run-level error is ExitFatal; with no run-level error, failed == 0
// is ExitOK, every entry failing is ExitFatal, and a strict subset failing
// is ExitPartialFailure.
func CampaignExitCode(err error, failed, total int) int {
	if err != nil {
		return ExitCode(err)
	}
	switch {
	case failed == 0:
		return ExitOK
	case failed >= total:
		return ExitFatal
	default:
		return ExitPartialFailure
	}
}
