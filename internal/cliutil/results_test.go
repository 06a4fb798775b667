package cliutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"extrapdnn/internal/core"
)

func TestResultWriterCheckpointRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewResultWriter(&buf)
	lines := []ResultLine{
		{Kernel: "solver", Metric: "runtime", Model: "2.5 + 0.5 * p^1", SMAPE: 1.25, Noise: 0.05, Selected: "dnn"},
		{Kernel: "io", Metric: "runtime", Model: "1 + log2(p)", Selected: "regression"},
	}
	for _, l := range lines {
		if err := w.WriteResult(l, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteResult(ResultLine{Kernel: "bad", Metric: "runtime"}, errors.New("too few points")); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}

	done, n, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(done) != 3 {
		t.Fatalf("checkpoint has %d lines, done-set %d", n, len(done))
	}
	for _, k := range []string{"solver", "io", "bad"} {
		if !done[CheckpointKey(k, "runtime")] {
			t.Fatalf("kernel %s missing from done-set", k)
		}
	}
	// A failed entry is a result too (deterministic failures must not be
	// retried on resume), recorded with its error string.
	if !strings.Contains(buf.String(), "too few points") {
		t.Fatal("entry error not recorded in the line")
	}
}

func TestResultWriterInterruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewResultWriter(&buf)
	for _, cause := range []error{context.Canceled, fmt.Errorf("model: %w", context.DeadlineExceeded)} {
		err := w.WriteResult(ResultLine{Kernel: "k", Metric: "runtime"}, cause)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("cause %v: err = %v, want ErrInterrupted", cause, err)
		}
		// The wrapped cause stays visible, so exit-code mapping sees the
		// cancellation.
		if ExitCode(err) != ExitTimeout {
			t.Fatalf("cause %v: ExitCode = %d, want ExitTimeout", cause, ExitCode(err))
		}
	}
	if buf.Len() != 0 || w.Count() != 0 {
		t.Fatal("interrupted entries must never reach the checkpoint file")
	}
}

func TestReadCheckpointRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"torn line": `{"kernel":"a","metric":"runtime"}` + "\n" + `{"kernel":"b",`,
		"no kernel": `{"metric":"runtime"}`,
		"not json":  `kernel,metric`,
	}
	for name, input := range cases {
		if _, _, err := ReadCheckpoint(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted a corrupt checkpoint", name)
		}
	}
	done, n, err := ReadCheckpoint(strings.NewReader(""))
	if err != nil || n != 0 || len(done) != 0 {
		t.Fatalf("empty checkpoint: done=%v n=%d err=%v", done, n, err)
	}
}

func TestCampaignExitCode(t *testing.T) {
	interrupted := &interruptedError{cause: context.Canceled}
	cases := []struct {
		name          string
		err           error
		failed, total int
		want          int
	}{
		{"clean", nil, 0, 10, ExitOK},
		{"empty", nil, 0, 0, ExitOK},
		{"partial", nil, 3, 10, ExitPartialFailure},
		{"total failure", nil, 10, 10, ExitFatal},
		{"timeout outranks partial", context.DeadlineExceeded, 3, 10, ExitTimeout},
		{"canceled", context.Canceled, 0, 10, ExitTimeout},
		{"interrupted checkpoint", interrupted, 2, 10, ExitTimeout},
		{"fatal error", errors.New("boom"), 0, 0, ExitFatal},
	}
	for _, tc := range cases {
		if got := CampaignExitCode(tc.err, tc.failed, tc.total); got != tc.want {
			t.Errorf("%s: CampaignExitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestResilienceNote(t *testing.T) {
	cases := []struct {
		r    core.Resilience
		want string
	}{
		{core.Resilience{AdaptAttempts: 1}, ""},
		{core.Resilience{AdaptSkipped: true}, ""},
		{core.Resilience{AdaptAttempts: 3}, "  [recovered: 3 adaptation attempts]"},
		{core.Resilience{AdaptAttempts: 3, Fallback: core.FallbackPretrained},
			"  [degraded: pretrained fallback, 3 adaptation attempt(s)]"},
	}
	for _, c := range cases {
		if got := ResilienceNote(c.r); got != c.want {
			t.Errorf("ResilienceNote(%+v) = %q, want %q", c.r, got, c.want)
		}
	}
}
