package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"extrapdnn"
	"extrapdnn/internal/obs"
)

const (
	// campaignWorkers is the concurrency of the timed campaigns (perfmodeler
	// -workers 1; results are bit-identical for any count). On the 2-vCPU
	// machine the benchmark is sized for, two concurrent trainings repeated
	// with an interquartile spread of 24% of their median, the same work done
	// serially with 10%: one worker keeps the gated times within their bounds.
	campaignWorkers = 1
	// primeWorkers is the concurrency of campaign-warm's untimed priming pass.
	primeWorkers = 2
)

// options are the modeler options of perfmodeler at its CLI defaults, with
// campaignWorkers workers.
func (c config) options() extrapdnn.Options {
	return extrapdnn.Options{
		Topology:                c.topology,
		PretrainSamplesPerClass: c.pretrainSamples,
		PretrainEpochs:          c.pretrainEpochs,
		AdaptSamplesPerClass:    c.adaptSamples,
		AdaptEpochs:             1,
		Seed:                    1,
		Workers:                 campaignWorkers,
	}
}

// pretrain builds the modeler reps times, as perfmodeler does before every
// campaign, and returns the last modeler, its saved network and the median
// build time in seconds. Every build must save the same network.
func pretrain(e *env, reps int) (*extrapdnn.AdaptiveModeler, []byte, float64, error) {
	var (
		m     *extrapdnn.AdaptiveModeler
		net   []byte
		times []float64
	)
	for i := 0; i < reps; i++ {
		var err error
		d := e.tr.timed(nil, "extrapdnn.NewAdaptiveModeler", func() {
			m, err = extrapdnn.NewAdaptiveModeler(e.cfg.options())
		})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("pretrain: %w", err)
		}
		times = append(times, d.Seconds())
		var buf bytes.Buffer
		if err := m.SaveNetwork(&buf); err != nil {
			return nil, nil, 0, fmt.Errorf("save network: %w", err)
		}
		if net == nil {
			net = buf.Bytes()
		} else if !bytes.Equal(net, buf.Bytes()) {
			e.chk.fail("pretraining run %d saved a different network than run 0", i)
		}
	}
	e.rep.set("dnnmodel.pretrain_s", median(times), len(times))
	return m, net, median(times), nil
}

// profileRun is one profile of a campaign: kernels of one parameter count, as
// a profile holds, and their JSONL rendering.
type profileRun struct {
	data []byte
	ks   []*kernel
}

// profilesByM splits kernels into one profile per parameter count, in
// increasing count, keeping their order.
func profilesByM(ks []*kernel) ([]profileRun, error) {
	var out []profileRun
	for m := 1; m <= 3; m++ {
		var p profileRun
		for _, k := range ks {
			if k.m == m {
				p.ks = append(p.ks, k)
			}
		}
		if len(p.ks) == 0 {
			continue
		}
		var err error
		if p.data, err = profileJSONL(p.ks); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// campaign streams each profile in turn through m exactly as perfmodeler
// -profile does (JSONL scanner, bounded ordered stream), checks every result,
// and returns when each result arrived, in ms since start.
func campaign(ctx context.Context, e *env, parent *span, start time.Time, m *extrapdnn.AdaptiveModeler, workers int, profs []profileRun) ([]float64, error) {
	var at []float64
	for _, p := range profs {
		var (
			sc  *extrapdnn.ProfileScanner
			err error
		)
		e.tr.timed(parent, "extrapdnn.NewProfileScanner", func() {
			sc, err = extrapdnn.NewProfileScanner(bytes.NewReader(p.data))
		})
		if err != nil {
			return nil, fmt.Errorf("scan profile: %w", err)
		}
		s := e.tr.start(parent, "extrapdnn.ModelProfileStream")
		err = m.ModelProfileStream(ctx, sc, extrapdnn.StreamOptions{Workers: workers, Ordered: true},
			func(r extrapdnn.StreamReport) error {
				at = append(at, ms(time.Since(start)))
				k := p.ks[r.Index]
				switch {
				case r.Kernel != k.name:
					e.chk.fail("result %d names kernel %q, want %q", r.Index, r.Kernel, k.name)
				case r.Err != nil:
					e.chk.observe(k, "", 0, r.Err)
				default:
					e.chk.observe(k, r.Report.Model.Model.String(), r.Report.Model.SMAPE, nil)
					e.attempts.Add(int64(r.Report.Resilience.AdaptAttempts))
					d := r.Report.Durations
					e.live.add(ms(d.Adapt), ms(d.DNN), ms(d.Regression))
				}
				return nil
			})
		s.end()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			e.chk.fail("campaign: %v", err)
		}
	}
	return at, nil
}

// checkCache fails the run when m's adaptation cache evicted an entry: every
// workload's working set is meant to fit it.
func checkCache(e *env, m *extrapdnn.AdaptiveModeler) {
	if ev := m.AdaptCacheStats().Evictions; ev != 0 {
		e.chk.fail("the adaptation cache evicted %d entries, want 0", ev)
	}
}

// programTrace switches the program's own metrics and spans on for the
// measured window of a traced in-process run. The returned function switches
// them off again and closes the program's span file.
func programTrace(e *env) (func() error, error) {
	if e.tr == nil {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(e.traceDir(), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(e.traceDir(), "program-spans.jsonl"))
	if err != nil {
		return nil, err
	}
	t := obs.NewTracer(f)
	obs.EnableMetrics()
	obs.SetTracer(t)
	e.live.begin(obs.Default().Snapshot())
	return func() error {
		e.live.end(obs.Default().Snapshot())
		obs.SetTracer(nil)
		obs.DisableMetrics()
		return t.Close()
	}, nil
}

// measureRSS returns the bench process's resident-set sampler for the
// measured window, after handing set-up garbage back to the OS.
func measureRSS() *rssSampler {
	debug.FreeOSMemory()
	return sampleRSS(os.Getpid())
}

// reportCampaigns sets the end-to-end metrics of a campaign workload from
// its timed campaigns of n kernels: when each result arrived (ms since its
// campaign began) and each campaign's wall time (ms). The quantiles are each
// campaign's own — a window holds two cold campaigns, and pooling their
// results would let the slower one set the p95 — and their mean over the
// campaigns is reported. On the machine the benchmark was sized on the
// host's speed alternates between two levels every few seconds; a median over
// campaigns follows whichever level held most of the window, a mean weighs
// both, and its run-to-run spread was about two thirds of the median's.
func reportCampaigns(e *env, results [][]float64, durs []float64, n int, rss *rssSampler) error {
	var p50, p95 []float64
	for _, at := range results {
		p50 = append(p50, median(at))
		p95 = append(p95, quantile(at, 0.95))
	}
	e.rep.set("latency_p50_ms", mean(p50), n*len(results))
	e.rep.set("latency_p95_ms", mean(p95), n*len(results))
	e.rep.set("throughput_kps", float64(n)/(mean(durs)/1e3), n*len(durs))
	e.rep.diag("campaign_ms", "ms", mean(durs), len(durs))
	peak, samples, err := rss.peakMB()
	if err != nil {
		return err
	}
	e.rep.set("peak_rss_mb", peak, samples)
	return nil
}

// coldGroups is the campaign-cold profile: for each parameter count one
// group below the modeler's 20% noise threshold and one above it, spread
// over the noise levels 2, 10, 30 and 60%.
var coldGroups = []groupSpec{
	{1, 0.02, 4, 4}, {1, 0.30, 4, 4},
	{2, 0.10, 4, 4}, {2, 0.60, 4, 4},
	{3, 0.02, 4, 4}, {3, 0.30, 4, 4},
}

// campaignCold: closed loop of back-to-back one-shot campaigns, each on a
// fresh modeler built from the network pretrained at set-up, so every
// campaign pays its own six domain adaptations — the cost the paper's Fig. 6
// shows dominating modeling time. A campaign streams one profile per
// parameter count, its two groups interleaved. Latency: a result line's time
// since its campaign began.
func campaignCold(ctx context.Context, e *env) error {
	groups, err := drawGroups(e.seed, coldGroups)
	if err != nil {
		return err
	}
	var ks []*kernel
	for i := 0; i < len(groups[0]); i++ {
		for _, g := range groups {
			ks = append(ks, g[i])
		}
	}
	profs, err := profilesByM(ks)
	if err != nil {
		return err
	}
	_, net, setup, err := pretrain(e, e.cfg.setupReps)
	if err != nil {
		return err
	}
	e.rep.set("setup_s", setup, e.cfg.setupReps)

	stopTrace, err := programTrace(e)
	if err != nil {
		return err
	}
	rss := measureRSS()
	var (
		results [][]float64
		durs    []float64
	)
	start := time.Now()
	for len(durs) == 0 || time.Since(start) < e.cfg.window() {
		root := e.tr.start(nil, "campaign-cold.campaign")
		t0 := time.Now()
		var m *extrapdnn.AdaptiveModeler
		e.tr.timed(root, "extrapdnn.NewAdaptiveModelerFromNetwork", func() {
			m, err = extrapdnn.NewAdaptiveModelerFromNetwork(bytes.NewReader(net), e.cfg.options())
		})
		if err != nil {
			return err
		}
		at, err := campaign(ctx, e, root, t0, m, campaignWorkers, profs)
		if err != nil {
			return err
		}
		results = append(results, at)
		durs = append(durs, ms(time.Since(t0)))
		root.end()
		checkCache(e, m)
	}
	if err := stopTrace(); err != nil {
		return err
	}
	if err := reportCampaigns(e, results, durs, len(ks), rss); err != nil {
		return err
	}
	if e.tr != nil {
		return replay(ctx, e, net, ks)
	}
	return nil
}

// campaignWarm: closed loop of repeated passes over one campaign — 16
// kernels for each of 1, 2 and 3 parameters, one layout per parameter count,
// in the noise mix, so a quarter take the DNN-only path — on one
// modeler whose adaptation cache an untimed priming pass filled: a repeat
// campaign at steady state, where regression search, DNN inference, noise
// analysis and the stream pipeline do all the work. A pass streams one
// shuffled profile per parameter count. Latency: a result line's time since
// its pass began.
func campaignWarm(ctx context.Context, e *env) error {
	groups, err := drawGroups(e.seed, mix([]int{1, 2, 3}, 2, 2))
	if err != nil {
		return err
	}
	ks := flatten(groups)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	profs, err := profilesByM(ks)
	if err != nil {
		return err
	}
	m, net, setup, err := pretrain(e, e.cfg.setupReps)
	if err != nil {
		return err
	}
	e.rep.set("setup_s", setup, e.cfg.setupReps)
	prime := e.tr.start(nil, "campaign-warm.prime")
	if _, err := campaign(ctx, e, prime, time.Now(), m, primeWorkers, profs); err != nil {
		return err
	}
	prime.end()

	stopTrace, err := programTrace(e)
	if err != nil {
		return err
	}
	rss := measureRSS()
	before := m.AdaptCacheStats()
	var (
		results [][]float64
		durs    []float64
	)
	start := time.Now()
	for len(durs) == 0 || time.Since(start) < e.cfg.window() {
		root := e.tr.start(nil, "campaign-warm.pass")
		t0 := time.Now()
		at, err := campaign(ctx, e, root, t0, m, campaignWorkers, profs)
		if err != nil {
			return err
		}
		results = append(results, at)
		durs = append(durs, ms(time.Since(t0)))
		root.end()
	}
	if err := stopTrace(); err != nil {
		return err
	}
	if misses := m.AdaptCacheStats().Misses - before.Misses; misses != 0 {
		e.chk.fail("the warm passes paid %d domain adaptations, want 0", misses)
	}
	checkCache(e, m)
	if err := reportCampaigns(e, results, durs, len(ks), rss); err != nil {
		return err
	}
	if e.tr != nil {
		return replay(ctx, e, net, ks)
	}
	return nil
}
