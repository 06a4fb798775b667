package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/noise"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/preprocess"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/regression"
	"extrapdnn/internal/server"
)

// replay is the last phase of a traced run: it calls the program's layer
// functions one at a time on the workload's own kernels, one span per call,
// and sets the per-layer metrics from their times. The program's metrics and
// tracer are off by then, so the layers run on their untraced paths — except
// for the cold adaptations, whose inner stages only the program's own spans
// and histograms can time.
func replay(ctx context.Context, e *env, netBytes []byte, ks []*kernel) error {
	root := e.tr.start(nil, "replay")
	defer root.end()
	net, err := nn.Load(bytes.NewReader(netBytes))
	if err != nil {
		return err
	}
	pre := &dnnmodel.Modeler{Net: net}
	cfg := core.Config{
		Adapt:          dnnmodel.AdaptConfig{SamplesPerClass: e.cfg.adaptSamples, Epochs: 1},
		Seed:           1,
		AdaptCacheSize: 32,
	}
	call := func(name string, fn func() error) (time.Duration, error) {
		var err error
		d := e.tr.timed(root, name, func() { err = fn() })
		if err != nil {
			return d, fmt.Errorf("replay %s: %w", name, err)
		}
		return d, nil
	}

	// Domain adaptation as the program runs it: a cold core.ModelCtx on a
	// fresh modeler, once per parameter count.
	var adaptMS, buildMS, trainMS []float64
	seen := map[int]bool{}
	for _, k := range ks {
		if seen[k.m] {
			continue
		}
		seen[k.m] = true
		a, b, t, err := coldAdapt(ctx, e, root, pre, cfg, k)
		if err != nil {
			return err
		}
		adaptMS, buildMS, trainMS = append(adaptMS, a), append(buildMS, b), append(trainMS, t)
	}
	e.rep.set("dnnmodel.adapt_ms", median(adaptMS), len(adaptMS))
	e.rep.set("dnnmodel.build_dataset_ms", median(buildMS), len(buildMS))
	e.rep.set("nn.train_ms", median(trainMS), len(trainMS))

	// The adaptive modeler at the CLI defaults, primed on every kernel so each
	// core call below is a cache hit.
	cm, err := core.New(pre, cfg)
	if err != nil {
		return err
	}
	if err := primeCore(ctx, cm, ks); err != nil {
		return err
	}

	// Every stage of core.ModelCtx, kernel by kernel.
	var (
		readJSON, analyze, fitLine []float64
		regModel, dnnModel         = map[int][]float64{}, map[int][]float64{}
		coreModel, combine         = map[int][]float64{}, map[int][]float64{}
		stages, cores              float64
		minCoverage                = math.Inf(1)
	)
	for _, k := range ks {
		d, err := call("measurement.ReadJSON", func() error {
			_, err := measurement.ReadJSON(bytes.NewReader(k.body))
			return err
		})
		if err != nil {
			return err
		}
		readJSON = append(readJSON, us(d))
		tAnalyze, _ := call("noise.Analyze", func() error { noise.Analyze(k.set); return nil })
		analyze = append(analyze, us(tAnalyze))
		var lines []regression.Line
		tLines, err := call("regression.SelectLines", func() (err error) { lines, err = regression.SelectLines(k.set); return err })
		if err != nil {
			return err
		}
		perParam := make([][]regression.Candidate, len(lines))
		for l, line := range lines {
			d, err := call("regression.FitLine", func() (err error) {
				perParam[l], err = regression.FitLine(line.Xs, line.Vs, pmnf.Classes(), regression.DefaultTopK)
				return err
			})
			if err != nil {
				return err
			}
			fitLine = append(fitLine, us(d))
		}
		if k.m > 1 {
			d, err := call("regression.Combine", func() error { _, err := regression.Combine(k.set, perParam); return err })
			if err != nil {
				return err
			}
			combine[k.m] = append(combine[k.m], ms(d))
		}
		tReg, err := call("regression.Model", func() error { _, err := regression.Model(k.set, regression.Options{}); return err })
		if err != nil {
			return err
		}
		regModel[k.m] = append(regModel[k.m], ms(tReg))
		// The adapted network's modeling run is timed by the program itself:
		// the bench cannot reach the cached network.
		var rep core.Report
		tCore, err := call("core.ModelCtx", func() (err error) { rep, err = cm.ModelCtx(ctx, k.set); return err })
		if err != nil {
			return err
		}
		coreModel[k.m] = append(coreModel[k.m], ms(tCore))
		dnnModel[k.m] = append(dnnModel[k.m], ms(rep.Durations.DNN))

		// Stage coverage: the stages core.ModelCtx runs for this kernel
		// against its wall time, so no stage can eat time unseen. The DNN and
		// regression stages are the program's own times from the same call
		// (regression is 0 above the noise threshold), as a replayed stage
		// runs at a different speed outside the call.
		stage := tAnalyze + tLines + rep.Durations.DNN + rep.Durations.Regression
		stages += float64(stage)
		cores += float64(tCore)
		minCoverage = math.Min(minCoverage, float64(stage)/float64(tCore))
	}
	coverage := 100 * stages / cores
	// Per-kernel means carry the total work of a mixed pool; the per-m
	// medians break it down.
	for _, l := range []struct {
		name string
		perM map[int][]float64
	}{
		{"regression.model_ms", regModel},
		{"dnnmodel.model_ms", dnnModel},
		{"core.model_ms", coreModel},
		{"regression.combine_ms", combine},
	} {
		var all []float64
		for m := 1; m <= 3; m++ {
			if xs := l.perM[m]; len(xs) > 0 {
				all = append(all, xs...)
				e.rep.diag(fmt.Sprintf("%s.m%d", l.name, m), "ms", median(xs), len(xs))
			}
		}
		e.rep.set(l.name, mean(all), len(all))
	}
	e.rep.set("regression.fitline_us", median(fitLine), len(fitLine))
	e.rep.set("noise.analyze_us", median(analyze), len(analyze))
	e.rep.set("measurement.read_json_us", median(readJSON), len(readJSON))
	e.rep.set("core.stage_coverage_pct", coverage, len(ks))
	e.rep.diag("core.stage_coverage_min_pct", "%", 100*minCoverage, len(ks))
	if coverage < 90 {
		fmt.Printf("warning: the replayed stages cover %.1f%% of core.ModelCtx, below 90%%\n", coverage)
	}

	// Heap allocated per cached core.ModelCtx call.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, k := range ks {
		if _, err := cm.ModelCtx(ctx, k.set); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	e.rep.set("core.alloc_kb_per_kernel", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(ks)), len(ks))

	// The daemon's /v1/model handler in-process: its time beyond modeling.
	srv, err := server.New(server.Config{Modeler: cm})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var overhead []float64
	for _, k := range ks {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/model", bytes.NewReader(k.body))
		d, _ := call("server.Handler", func() error { h.ServeHTTP(rec, req); return nil })
		var resp server.ModelResponse
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay server.Handler: status %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("replay server.Handler: %w", err)
		}
		overhead = append(overhead, us(d)-1e3*resp.Durations.TotalMS)
	}
	e.rep.set("server.overhead_us", median(overhead), len(overhead))

	// Batched inference over every encoded line of the workload.
	rows := 0
	for _, k := range ks {
		rows += k.m
	}
	enc := mat.New(rows, preprocess.InputSize)
	r := 0
	for _, k := range ks {
		lines, err := regression.SelectLines(k.set)
		if err != nil {
			return err
		}
		for _, line := range lines {
			if err := preprocess.EncodeTo(enc.Row(r), line.Xs, line.Vs); err != nil {
				return err
			}
			r++
		}
	}
	sess := net.NewInferSession(rows, nn.Float64)
	e.rep.set("nn.topk_us_per_row", perItem(e, root, "nn.InferSession.TopKBatch", rows, func() error {
		sess.TopKBatch(enc, regression.DefaultTopK)
		return nil
	}), rows)

	// Streaming profile decode of the workload's kernels, one profile per
	// parameter count.
	byM := map[int][]*kernel{}
	for _, k := range ks {
		byM[k.m] = append(byM[k.m], k)
	}
	var profs [][]byte
	for _, group := range byM {
		prof, err := profileJSONL(group)
		if err != nil {
			return err
		}
		profs = append(profs, prof)
	}
	e.rep.set("profile.scan_us_per_kernel", perItem(e, root, "profile.Scanner", len(ks), func() error {
		for _, prof := range profs {
			sc, err := profile.NewScanner(bytes.NewReader(prof))
			if err != nil {
				return err
			}
			for {
				if _, err := sc.NextEntry(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
		}
		return nil
	}), len(ks))

	e.rep.set("mat.multo_gflops.64x64x48", mulGFLOPS(e, root, 64, 64, 48), 5)
	e.rep.set("mat.multo_gflops.256x64x64", mulGFLOPS(e, root, 256, 64, 64), 5)
	return nil
}

// coldAdapt models k once on a fresh modeler, with the program's metrics and
// spans switched on, and returns in ms the adaptation time the program
// reports, the dataset synthesis time its histogram adds, and the training
// time of its nn.train spans.
func coldAdapt(ctx context.Context, e *env, parent *span, pre *dnnmodel.Modeler, cfg core.Config, k *kernel) (adapt, build, train float64, err error) {
	cm, err := core.New(pre, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	var spans bytes.Buffer
	t := obs.NewTracer(&spans)
	obs.EnableMetrics()
	obs.SetTracer(t)
	before := obs.Default().Snapshot()
	var rep core.Report
	e.tr.timed(parent, "core.ModelCtx.cold", func() { rep, err = cm.ModelCtx(ctx, k.set) })
	after := obs.Default().Snapshot()
	obs.SetTracer(nil)
	obs.DisableMetrics()
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("replay cold core.ModelCtx: %w", err)
	}
	const hist = "extrapdnn_dnnmodel_dataset_build_seconds"
	build = 1e3 * (after.Histograms[hist].Sum - before.Histograms[hist].Sum)
	dec := json.NewDecoder(&spans)
	for {
		var s struct {
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		}
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return 0, 0, 0, fmt.Errorf("replay: the program's spans: %w", err)
		}
		if s.Name == "nn.train" {
			train += float64(s.DurNS) / 1e6
		}
	}
	return ms(rep.Durations.Adapt), build, train, nil
}

// primeCore models every kernel once on cm, on two goroutines, so that each
// later call is a cache hit.
func primeCore(ctx context.Context, cm *core.Modeler, ks []*kernel) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, 2)
	)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ks) && errs[w] == nil; i = int(next.Add(1) - 1) {
				if _, err := cm.ModelCtx(ctx, ks[i].set); err != nil {
					errs[w] = fmt.Errorf("replay: prime: %w", err)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// perItem repeats fn, one span per call, until it has run at least three
// times and 20 ms, and returns the median call time per item in µs. The
// caller's inputs are valid, so an error from fn is a program bug and the
// call's time still counts.
func perItem(e *env, parent *span, name string, items int, fn func() error) float64 {
	var per []float64
	var total time.Duration
	for len(per) < 3 || total < 20*time.Millisecond {
		var err error
		d := e.tr.timed(parent, name, func() { err = fn() })
		if err != nil {
			e.chk.fail("replay %s: %v", name, err)
		}
		total += d
		per = append(per, us(d)/float64(items))
	}
	return median(per)
}

// mulGFLOPS times mat.MulTo on an (m×k)·(k×n) product at a training shape
// and returns the median rate of five batches in computed GFLOP/s.
func mulGFLOPS(e *env, parent *span, m, k, n int) float64 {
	rng := rand.New(rand.NewSource(1))
	a, b, out := mat.New(m, k), mat.New(k, n), mat.New(m, n)
	for _, v := range [][]float64{a.Data(), b.Data()} {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	iters := 1
	for t0 := time.Now(); time.Since(t0) < 5*time.Millisecond; iters *= 2 {
		for i := 0; i < iters; i++ {
			mat.MulTo(out, a, b)
		}
	}
	name := fmt.Sprintf("mat.MulTo.%dx%dx%d", m, k, n)
	var rates []float64
	for r := 0; r < 5; r++ {
		d := e.tr.timed(parent, name, func() {
			for i := 0; i < iters; i++ {
				mat.MulTo(out, a, b)
			}
		})
		rates = append(rates, 2*float64(m*k*n)*float64(iters)/d.Seconds()/1e9)
	}
	return median(rates)
}
