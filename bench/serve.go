package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"extrapdnn/internal/client"
	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/server"
)

const (
	// maxConns bounds the generator's HTTP connections, one per core of the
	// 2-core machine the benchmark is sized for. The saturation phase uses
	// one: like two concurrent trainings, two saturating connections made
	// the throughput swing with the host's load.
	maxConns = 2
	// hitRate is the open-loop arrival rate of the serving workloads: about a
	// third of one core at the serve-hit request mix.
	hitRate = 120.0
	// startTimeout bounds a daemon's start, network load included.
	startTimeout = 2 * time.Minute
	// daemonStarts is how often a serving run starts modelerd; setup_s is
	// the median. A start takes milliseconds, so many are cheap.
	daemonStarts = 9
)

// daemon is one modelerd child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	exited  chan struct{} // closed once the process exited and stderr is drained
	waitErr error         // the process's exit, valid once exited is closed
	mu      sync.Mutex
	log     []string // the last lines of its stderr
}

// startDaemon spawns modelerd on a free loopback port and returns once
// /healthz answers 200, with the time from spawn to that answer.
func startDaemon(ctx context.Context, bin string, hc *http.Client, args []string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start modelerd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			if len(d.log) > 20 {
				d.log = d.log[1:]
			}
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on "); ok && d.url == "" {
				d.url = strings.Fields(rest)[0]
				urls <- d.url
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	deadline := time.NewTimer(startTimeout)
	defer deadline.Stop()
	select {
	case <-urls:
	case <-d.exited:
		return nil, 0, fmt.Errorf("modelerd exited before serving: %v\n%s", d.waitErr, d.tail())
	case <-deadline.C:
		d.kill()
		return nil, 0, fmt.Errorf("modelerd did not start within %v\n%s", startTimeout, d.tail())
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	for {
		if h, err := health(ctx, hc, d.url); err == nil && h.Status == "ok" {
			return d, time.Since(t0), nil
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-deadline.C:
			d.kill()
			return nil, 0, fmt.Errorf("modelerd never answered /healthz\n%s", d.tail())
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		}
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// stop drains the daemon with SIGTERM and waits for it to exit cleanly.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("modelerd exited early: %v\n%s", d.waitErr, d.tail())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("modelerd: %v\n%s", d.waitErr, d.tail())
		}
		return nil
	case <-time.After(time.Minute):
		d.kill()
		return fmt.Errorf("modelerd did not drain within a minute")
	}
}

// kill ends the daemon if it still runs and waits until it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	<-d.exited
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func health(ctx context.Context, hc *http.Client, url string) (server.HealthResponse, error) {
	var h server.HealthResponse
	err := getJSON(ctx, hc, url+"/healthz", &h)
	return h, err
}

func scrape(ctx context.Context, hc *http.Client, url string) (obs.Snapshot, error) {
	var s obs.Snapshot
	err := getJSON(ctx, hc, url+"/metrics.json", &s)
	return s, err
}

// postModel sends one pre-encoded measurement set to /v1/model.
func postModel(ctx context.Context, hc *http.Client, url string, body []byte) (*server.ModelResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/model", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out server.ModelResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return &out, err
}

// serving is the serving-side state of one run.
type serving struct {
	e    *env
	hc   *http.Client
	d    *daemon
	net  []byte
	rss  *rssSampler // the daemon's resident set over the measured window
	mu   sync.Mutex
	ovhd []float64 // client wall time minus the daemon's modeling time, ms
}

// serveSetup pretrains the network once in-process, saves it, and starts
// modelerd on it daemonStarts times; setup_s is the median time from spawn to
// the first healthy /healthz. The last daemon keeps serving.
func serveSetup(ctx context.Context, e *env) (*serving, error) {
	s := &serving{e: e, hc: newHTTPClient()}
	var err error
	if _, s.net, _, err = pretrain(e, 1); err != nil {
		return nil, err
	}
	path := filepath.Join(e.cfg.out, fmt.Sprintf("net-%s-seed%d.bin", e.rep.Workload, e.seed))
	if err := os.WriteFile(path, s.net, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path) // modelerd has loaded it by the time it serves
	args := []string{"-net", path, "-adapt-samples", strconv.Itoa(e.cfg.adaptSamples)}
	if e.tr != nil {
		if err := os.MkdirAll(e.traceDir(), 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-trace", filepath.Join(e.traceDir(), "daemon-spans.jsonl"))
	}
	var times []float64
	for i := 0; i < daemonStarts; i++ {
		if s.d != nil {
			if err := s.d.stop(); err != nil {
				return nil, err
			}
			s.hc.CloseIdleConnections()
		}
		var t time.Duration
		if s.d, t, err = startDaemon(ctx, e.cfg.modelerd, s.hc, args); err != nil {
			return nil, err
		}
		times = append(times, t.Seconds())
	}
	e.rep.set("setup_s", median(times), len(times))
	return s, nil
}

// hit sends one /v1/model request for k and checks the response.
func (s *serving) hit(ctx context.Context, parent *span, k *kernel) {
	sp := s.e.tr.start(parent, "http.v1.model")
	t0 := time.Now()
	resp, err := postModel(ctx, s.hc, s.d.url, k.body)
	wall := time.Since(t0)
	sp.end()
	if err != nil {
		if ctx.Err() == nil {
			s.e.chk.observe(k, "", 0, err)
		}
		return
	}
	s.e.chk.observe(k, resp.Model.String(), resp.SMAPE, nil)
	s.e.attempts.Add(int64(resp.AdaptAttempts))
	d := resp.Durations
	s.e.live.add(d.AdaptMS, d.DNNMS, d.RegressionMS)
	s.mu.Lock()
	s.ovhd = append(s.ovhd, ms(wall)-d.TotalMS)
	s.mu.Unlock()
}

// prime requests every pool set once over maxConns connections, so every
// adaptation signature is cached and every set has a first response to hold
// repeats to.
func (s *serving) prime(ctx context.Context, pool []*kernel) {
	root := s.e.tr.start(nil, "serve.prime")
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pool) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				s.hit(ctx, root, pool[i])
			}
		}()
	}
	wg.Wait()
	root.end()
}

// begin and end bracket the measured phase. Each scrapes the daemon's
// metrics, hands the snapshot to the live stats, and returns the daemon's
// adaptation count so far; between them the daemon's resident set is
// sampled. end also fails the run when the daemon's adaptation cache evicted
// an entry, unless evictions are expected.
func (s *serving) begin(ctx context.Context) (uint64, error) {
	s.mu.Lock()
	s.ovhd = nil
	s.mu.Unlock()
	s.rss = sampleRSS(s.d.cmd.Process.Pid)
	snap, err := s.snapshot(ctx, s.e.live.begin)
	return snap.Counter("extrapdnn_adaptcache_misses_total"), err
}

func (s *serving) end(ctx context.Context, evictionsExpected bool) (uint64, error) {
	peak, samples, err := s.rss.peakMB()
	if err != nil {
		return 0, err
	}
	s.e.rep.set("peak_rss_mb", peak, samples)
	snap, err := s.snapshot(ctx, s.e.live.end)
	if ev := snap.Counter("extrapdnn_adaptcache_evictions_total"); ev != 0 && !evictionsExpected {
		s.e.chk.fail("the daemon's adaptation cache evicted %d entries, want 0", ev)
	}
	return snap.Counter("extrapdnn_adaptcache_misses_total"), err
}

func (s *serving) snapshot(ctx context.Context, keep func(obs.Snapshot)) (obs.Snapshot, error) {
	snap, err := scrape(ctx, s.hc, s.d.url)
	if err != nil {
		return snap, err
	}
	keep(snap)
	return snap, nil
}

// finish stops the daemon and replays the layers in a traced run.
func (s *serving) finish(ctx context.Context, inputs []*kernel) error {
	s.mu.Lock()
	s.e.rep.diag("server.overhead_ms.p50", "ms", median(s.ovhd), len(s.ovhd))
	s.mu.Unlock()
	if err := s.d.stop(); err != nil {
		return err
	}
	s.hc.CloseIdleConnections()
	if s.e.tr != nil {
		return replay(ctx, s.e, s.net, inputs)
	}
	return nil
}

// openLoop releases n requests at a fixed rate to conns connections and
// returns each request's latency from its due time — so a request that waits
// for a free connection is charged the wait — and how late the generator
// released it, both in ms.
func openLoop(ctx context.Context, rate float64, n, conns int, do func(i int)) (lat, late []float64) {
	lat, late = make([]float64, n), make([]float64, n)
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // one slot per request: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				do(j.i)
				lat[j.i] = ms(time.Since(j.due))
			}
		}()
	}
	start := time.Now()
	sent := 0
	for ; sent < n && ctx.Err() == nil; sent++ {
		due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[sent] = ms(time.Since(due))
		jobs <- job{sent, due}
	}
	close(jobs)
	wg.Wait()
	return lat[:sent], late[:sent]
}

// closedLoop sends requests back to back on one connection for d and
// returns the number completed and the time until the last one finished.
func closedLoop(ctx context.Context, d time.Duration, do func(i int)) (int, time.Duration) {
	start := time.Now()
	n := 0
	for ; time.Since(start) < d && ctx.Err() == nil; n++ {
		do(n)
	}
	return n, time.Since(start)
}

// serveHit: the modelerd steady state. An open loop of /v1/model at hitRate
// on maxConns connections for 60% of the window, then a closed-loop
// saturation phase on one connection, over a primed pool whose signatures
// are all cached — 144 one-, 144 two- and 32 three-parameter sets, with
// campaign-warm's noise mix: per-request work is small, so HTTP, JSON and the
// limiter weigh next to regression and inference, and no training runs.
// Latency: a request's time since it was due.
func serveHit(ctx context.Context, e *env) error {
	groups, err := drawGroups(e.seed, append(mix([]int{1, 2}, 4, 32), mix([]int{3}, 2, 6)...))
	if err != nil {
		return err
	}
	pool := flatten(groups)
	order := rand.New(rand.NewSource(e.seed)).Perm(len(pool))
	s, err := serveSetup(ctx, e)
	if err != nil {
		return err
	}
	defer s.d.kill()
	s.prime(ctx, pool)

	m0, err := s.begin(ctx)
	if err != nil {
		return err
	}
	fixed := e.tr.start(nil, "serve-hit.fixed-rate")
	n := int(hitRate * 0.6 * e.cfg.seconds)
	lat, late := openLoop(ctx, hitRate, n, maxConns, func(i int) { s.hit(ctx, fixed, pool[order[i%len(order)]]) })
	fixed.end()
	satSpan := e.tr.start(nil, "serve-hit.saturation")
	done, elapsed := closedLoop(ctx, time.Duration(0.4*float64(e.cfg.window())), func(i int) {
		s.hit(ctx, satSpan, pool[order[i%len(order)]])
	})
	satSpan.end()
	m1, err := s.end(ctx, false)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if m1 != m0 {
		e.chk.fail("the timed phases paid %d domain adaptations, want 0", m1-m0)
	}

	e.rep.set("latency_p50_ms", median(lat), len(lat))
	e.rep.set("latency_p95_ms", quantile(lat, 0.95), len(lat))
	e.rep.set("throughput_kps", float64(done)/elapsed.Seconds(), done)
	e.rep.diag("latency_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	e.rep.diag("generator_late_p99_ms", "ms", quantile(late, 0.99), len(late))
	return s.finish(ctx, pool)
}

// serveMixed: returning users' hits (m = 1, 2; one connection, open loop at
// hitRate) beside a new user's first campaigns: on the second connection,
// closed loop, one /v1/profile stream after the other, each of four
// noise-free kernels on a never-seen two-parameter layout — one adaptation,
// the other kernels coalesced. Latency: a hit request's time since it was
// due; throughput_kps: new-campaign kernels completed per second of the
// campaign loop.
func serveMixed(ctx context.Context, e *env) error {
	groups, err := drawGroups(e.seed, mix([]int{1, 2}, 4, 36))
	if err != nil {
		return err
	}
	pool := flatten(groups)
	rng := rand.New(rand.NewSource(e.seed))
	order := rng.Perm(len(pool))
	campaigns := make([][]*kernel, e.cfg.newCampaigns)
	inputs := append([]*kernel(nil), pool...)
	// Layouts come from a few sequence kinds and do repeat; a repeated
	// layout would be a cache hit, not a new campaign.
	used := map[string]bool{}
	for c := range campaigns {
		for try := 0; campaigns[c] == nil; try++ {
			if try == 100 {
				return fmt.Errorf("no unused two-parameter layout for new campaign %d", c)
			}
			ks, sig, err := sameSignature(rng, fmt.Sprintf("new%02d-", c), newLayout(rng, 2), 0, "", 4)
			if err != nil {
				return err
			}
			if !used[sig] {
				used[sig], campaigns[c] = true, ks
			}
		}
		inputs = append(inputs, campaigns[c]...)
	}
	s, err := serveSetup(ctx, e)
	if err != nil {
		return err
	}
	defer s.d.kill()
	s.prime(ctx, pool)

	m0, err := s.begin(ctx)
	if err != nil {
		return err
	}
	cl := &client.Client{BaseURL: s.d.url, HTTPClient: s.hc, Retry: client.RetryPolicy{MaxAttempts: -1}}
	var (
		wg                sync.WaitGroup
		lat, late         []float64
		missLat, firstLat []float64
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		hits := e.tr.start(nil, "serve-mixed.hits")
		lat, late = openLoop(ctx, hitRate, int(hitRate*e.cfg.seconds), 1, func(i int) {
			s.hit(ctx, hits, pool[order[i%len(order)]])
		})
		hits.end()
	}()
	ran, kernels := 0, 0
	for _, ks := range campaigns {
		if time.Since(start) >= e.cfg.window() || ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		first, last := s.newCampaign(ctx, cl, ks)
		ran++
		if !last.IsZero() {
			kernels += len(ks)
			firstLat = append(firstLat, ms(first.Sub(t0)))
			missLat = append(missLat, ms(last.Sub(t0)))
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	// Entries of finished new campaigns are never used again; the cache may
	// evict them. An evicted pool entry shows as a surplus adaptation.
	m1, err := s.end(ctx, true)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if m1-m0 != uint64(ran) {
		e.chk.fail("%d new campaigns paid %d domain adaptations, want one each", ran, m1-m0)
	}

	e.rep.set("latency_p50_ms", median(lat), len(lat))
	e.rep.set("latency_p95_ms", quantile(lat, 0.95), len(lat))
	e.rep.set("throughput_kps", float64(kernels)/elapsed.Seconds(), kernels)
	e.rep.diag("latency_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	e.rep.diag("generator_late_p99_ms", "ms", quantile(late, 0.99), len(late))
	e.rep.diag("miss_p50_ms", "ms", median(missLat), len(missLat))
	e.rep.diag("client.first_line_ms.p50", "ms", median(firstLat), len(firstLat))
	return s.finish(ctx, inputs)
}

// newCampaign streams one new campaign through internal/client with retries
// off, checks every result line, and returns when the first and the last
// line arrived (zero when the stream failed).
func (s *serving) newCampaign(ctx context.Context, cl *client.Client, ks []*kernel) (first, last time.Time) {
	sp := s.e.tr.start(nil, "serve-mixed.new-campaign")
	defer sp.end()
	names := byName(ks)
	n, err := cl.StreamProfile(ctx, "bench", nil, profile.Entries(entries(ks)), func(line cliutil.ResultLine) error {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		last = now
		k := names[line.Kernel]
		if k == nil {
			s.e.chk.fail("new campaign returned unknown kernel %q", line.Kernel)
			return nil
		}
		var lineErr error
		if line.Error != "" {
			lineErr = errors.New(line.Error)
		}
		s.e.chk.observe(k, line.Model, line.SMAPE, lineErr)
		return nil
	})
	if err == nil && n != len(ks) {
		err = fmt.Errorf("%d result lines for %d kernels", n, len(ks))
	}
	if err != nil {
		if ctx.Err() == nil {
			s.e.chk.fail("new campaign: %v", err)
		}
		return time.Time{}, time.Time{}
	}
	return first, last
}
