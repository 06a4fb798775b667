package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"extrapdnn/internal/client"
	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/server"
)

// backends returns a regression-only local backend and a remote backend
// talking to a regression-only in-process daemon (the serving stack modelerd
// mounts), each with its own modeler.
func backends(t *testing.T) (backend, backend) {
	t.Helper()
	newModeler := func() *core.Modeler {
		m, err := core.New(nil, core.Config{DisableDNN: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	srv, err := server.New(server.Config{Modeler: newModeler()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return local{newModeler(), 1}, remote{client.New(ts.URL)}
}

// writeCampaign writes a five-kernel profile whose last kernel has too few
// points to model: it passes validation but fails inside the modeler. One
// kernel names its parameter n instead of p, as a profile's entries may.
func writeCampaign(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := profile.NewWriter(&buf, "app", []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 5; k++ {
		xs := []float64{4, 8, 16, 32, 64}
		if k == 4 {
			xs = xs[:2]
		}
		name := "p"
		if k == 2 {
			name = "n"
		}
		set := &measurement.Set{ParamNames: []string{name}, Metric: "time"}
		for _, x := range xs {
			vals := make([]float64, 3)
			for r := range vals {
				vals[r] = (1 + float64(k+1)*x) * (1 + 0.04*(rng.Float64()-0.5))
			}
			set.Data = append(set.Data, measurement.Measurement{Point: measurement.Point{x}, Values: vals})
		}
		if err := w.WriteEntry(profile.Entry{Kernel: fmt.Sprintf("kern%d", k), Metric: "time", Set: set}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// run runs the -profile mode and returns its exit code and stdout.
func run(t *testing.T, ctx context.Context, b backend, o options) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	code := runCampaign(ctx, b, o)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLocalAndRemoteCampaignsIdentical pins the -server contract: the same
// campaign, one failing kernel included, writes byte-identical results files
// and tables and exits with the same code on either backend. With -predict
// the tables gain an f(P) column, identical across backends too, and the
// failing kernel's row stays as it was.
func TestLocalAndRemoteCampaignsIdentical(t *testing.T) {
	loc, rem := backends(t)
	path := writeCampaign(t)
	dir := t.TempDir()
	var failedRow string
	for _, predict := range []string{"", "128"} {
		var files, outs [2]string
		for i, b := range []backend{loc, rem} {
			files[i] = filepath.Join(dir, fmt.Sprintf("results%d-%s.jsonl", i, predict))
			code, out := run(t, context.Background(), b, options{profilePath: path, outJSONL: files[i], predict: predict})
			if code != cliutil.ExitPartialFailure {
				t.Fatalf("-predict %q, backend %d: exit code %d, want %d (one kernel fails)", predict, i, code, cliutil.ExitPartialFailure)
			}
			outs[i] = out
		}
		local, remote := readFile(t, files[0]), readFile(t, files[1])
		if local != remote {
			t.Fatalf("-predict %q: results differ:\nlocal:\n%s\nremote:\n%s", predict, local, remote)
		}
		if n := strings.Count(local, "\n"); n != 5 || !strings.Contains(local, `"kernel":"kern4","metric":"time","error":`) {
			t.Fatalf("-predict %q: results file (%d lines) lacks the failed kernel's line:\n%s", predict, n, local)
		}
		if outs[0] != outs[1] {
			t.Fatalf("-predict %q: tables differ:\nlocal:\n%s\nremote:\n%s", predict, outs[0], outs[1])
		}
		lines := strings.Split(strings.TrimSpace(outs[0]), "\n")
		if predict == "" {
			failedRow = lines[len(lines)-1]
			continue
		}
		if !strings.Contains(lines[1], "| f(128)     | model") {
			t.Fatalf("-predict table header lacks the f(P) column:\n%s", outs[0])
		}
		// kern0 measures 1 + p, so its model predicts about 129 at p = 128.
		cols := strings.Split(lines[2], "|")
		if f, err := strconv.ParseFloat(strings.TrimSpace(cols[len(cols)-2]), 64); !strings.HasPrefix(lines[2], "kern0 ") ||
			len(cols) != 5 || err != nil || math.Abs(f-129) > 13 {
			t.Fatalf("-predict row lacks f(128) ≈ 129 for kern0:\n%s", outs[0])
		}
		if got := lines[len(lines)-1]; got != failedRow || !strings.Contains(got, "modeling failed") {
			t.Fatalf("failed kernel's row changed under -predict:\n got %q\nwant %q", got, failedRow)
		}
	}
}

// noStream fails the test if a campaign reaches its backend.
type noStream struct {
	backend
	t *testing.T
}

func (n noStream) stream(context.Context, string, []string, profile.Source,
	func(cliutil.ResultLine, string, error) error) error {
	n.t.Error("the campaign reached the backend")
	return nil
}

// TestProfileRejectsSingleSetFlags checks that -profile refuses the flags
// that only the single-set mode reads instead of ignoring them.
func TestProfileRejectsSingleSetFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    options
		ok   bool
	}{
		{"profile", options{profilePath: "p.jsonl"}, true},
		{"profile -predict", options{profilePath: "p.jsonl", predict: "4"}, true},
		{"profile -interval", options{profilePath: "p.jsonl", predict: "4", interval: true}, false},
		{"profile -scaling", options{profilePath: "p.jsonl", scalingParam: 1}, false},
		{"profile -json", options{profilePath: "p.jsonl", jsonOut: true}, false},
		{"set -interval -scaling -json", options{predict: "4", interval: true, scalingParam: 1, jsonOut: true}, true},
	} {
		err := tc.o.check()
		if (err == nil) != tc.ok {
			t.Errorf("%s: check() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && (strings.Contains(err.Error(), "\n") || cliutil.ExitCode(err) != cliutil.ExitFatal) {
			t.Errorf("%s: %q is not a one-line fatal error", tc.name, err)
		}
	}
}

// cancelAfter cancels the campaign after n kernels, the way a -timeout expiry
// or a signal cuts a long campaign short: kernel n+1, in flight at that
// moment, observes the cancellation as its modeling error.
type cancelAfter struct {
	backend
	n      int
	cancel context.CancelFunc
}

func (c cancelAfter) stream(ctx context.Context, app string, paramNames []string, src profile.Source,
	emit func(cliutil.ResultLine, string, error) error) error {
	seen := 0
	return c.backend.stream(ctx, app, paramNames, src, func(line cliutil.ResultLine, note string, err error) error {
		if seen == c.n {
			c.cancel()
			err = ctx.Err()
			line, note = cliutil.ResultLine{Kernel: line.Kernel, Metric: line.Metric, Error: err.Error()}, ""
		}
		seen++
		return emit(line, note, err)
	})
}

// TestCancelledLocalCampaignResumesRemotely checks that a campaign cut short
// locally and resumed with -server on the same checkpoint ends with the
// results file of an uninterrupted run.
func TestCancelledLocalCampaignResumesRemotely(t *testing.T) {
	loc, rem := backends(t)
	path := writeCampaign(t)
	dir := t.TempDir()

	want := filepath.Join(dir, "full.jsonl")
	run(t, context.Background(), loc, options{profilePath: path, outJSONL: want})

	ckpt := filepath.Join(dir, "ckpt.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	code, _ := run(t, ctx, cancelAfter{loc, 1, cancel}, options{profilePath: path, outJSONL: ckpt})
	if code != cliutil.ExitTimeout {
		t.Fatalf("cancelled run: exit code %d, want %d", code, cliutil.ExitTimeout)
	}
	// The interrupted kernel halts the stream before its line is written.
	partial := readFile(t, ckpt)
	if n := strings.Count(partial, "\n"); n != 1 || !strings.HasPrefix(readFile(t, want), partial) {
		t.Fatalf("cancelled run wrote %d lines, want the first line of the full results:\n%s", n, partial)
	}

	code, out := run(t, context.Background(), rem, options{profilePath: path, outJSONL: ckpt, resume: true})
	if code != cliutil.ExitPartialFailure {
		t.Fatalf("resumed run: exit code %d, want %d", code, cliutil.ExitPartialFailure)
	}
	if !strings.Contains(out, "resumed: ") {
		t.Fatalf("resumed run printed no resume summary:\n%s", out)
	}
	if got := readFile(t, ckpt); got != readFile(t, want) {
		t.Fatalf("resumed results differ from an uninterrupted run:\ngot:\n%s\nwant:\n%s", got, readFile(t, want))
	}
}

// TestCampaignExitCodesMatchAcrossBackends pins the exit-code tail both
// backends share: a fully checkpointed campaign has nothing to do (0), and a
// -kernel that matches nothing or a -predict point of the wrong arity is
// fatal (1), the latter before any kernel reaches the backend. Partial
// failure (3) is covered by TestLocalAndRemoteCampaignsIdentical.
func TestCampaignExitCodesMatchAcrossBackends(t *testing.T) {
	loc, rem := backends(t)
	path := writeCampaign(t)
	done := filepath.Join(t.TempDir(), "done.jsonl")
	run(t, context.Background(), loc, options{profilePath: path, outJSONL: done})
	full := readFile(t, done)

	for name, b := range map[string]backend{"local": loc, "remote": rem} {
		code, out := run(t, context.Background(), b, options{profilePath: path, outJSONL: done, resume: true})
		if code != cliutil.ExitOK || !strings.Contains(out, "resumed: 5 kernel(s) already in") {
			t.Errorf("%s, fully checkpointed: exit code %d, output:\n%s", name, code, out)
		}
		if got := readFile(t, done); got != full {
			t.Errorf("%s, fully checkpointed: results file changed:\n%s", name, got)
		}
		if code, _ := run(t, context.Background(), b, options{profilePath: path, filter: "nope"}); code != cliutil.ExitFatal {
			t.Errorf("%s, -kernel matching nothing: exit code %d, want %d", name, code, cliutil.ExitFatal)
		}
		code, out = run(t, context.Background(), noStream{b, t}, options{profilePath: path, predict: "128,2"})
		if code != cliutil.ExitFatal || strings.Contains(out, "kern0") {
			t.Errorf("%s, -predict of the wrong arity: exit code %d, want %d with no kernel row; output:\n%s", name, code, cliutil.ExitFatal, out)
		}
	}
}
