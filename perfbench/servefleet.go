package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/router"
	"merlin/internal/service"
	"merlin/internal/trace"
	"merlin/internal/tree"
)

// serve-fleet: two closed-loop clients, each following a fixed script drawn
// from the seed, against merlinrouter in front of two durable merlind
// backends. The script mixes four request classes over 6-sink nets solved
// with default loops: result-cache hits on a warm set pre-solved during
// set-up, cold nets, what-if re-requests of a just-solved net with a new
// area budget (which reuse its engine), and cold nets sent as async jobs
// and polled until done.

const fleetClients = 2

// scriptShape is one client's script. At 30 s both clients together send
// 4000 hits (p99 has 40 beyond it) and 100 cold routes (p90 has 10 beyond
// it); the script runs ~45 s, the longest of the three workloads, because
// the fleet is the noisiest. What-ifs and jobs are few: each costs a cold
// solve's worth of work.
type scriptShape struct{ cold, whatIf, jobs, hits int }

func shapeFor(cfg config) scriptShape {
	if cfg.smoke {
		return scriptShape{cold: 2, whatIf: 1, jobs: 1, hits: 20}
	}
	scale := float64(cfg.seconds) / 30
	if cfg.traced {
		scale /= 2 // a traced run serves its script twice: untraced, then traced
	}
	at := func(n float64) int { return max(1, int(math.Round(n*scale))) }
	return scriptShape{cold: at(50), whatIf: at(4), jobs: at(3), hits: at(2000)}
}

// warmSet is the nets the hits ask for, pre-solved during set-up. It does
// not depend on the seed: hit latency does not depend on which net is
// cached, and a fixed warm set keeps setup_s comparable across seeds.
func warmSet() []*net.Net {
	return genNets(rand.New(rand.NewSource(2)), 6, 4, 0)
}

type opKind int

const (
	opHit opKind = iota
	opCold
	opWhatIf // follows the cold op before it
	opJob
)

type op struct {
	kind opKind
	net  *net.Net
}

// clientScript draws client c's script from the seed: the cold routes (the
// first few followed by their what-if) and the jobs in a seeded order, with
// the hits spread evenly between them, so that no stretch of a script is all
// cold work.
func clientScript(cfg config, c int, shape scriptShape, warm, nets []*net.Net) []op {
	rng := rand.New(rand.NewSource(cfg.seed*fleetClients + int64(c)))
	var units [][]op
	for i, n := range nets[:shape.cold] {
		u := []op{{opCold, n}}
		if i < shape.whatIf {
			u = append(u, op{opWhatIf, n})
		}
		units = append(units, u)
	}
	for _, n := range nets[shape.cold:] {
		units = append(units, []op{{opJob, n}})
	}
	var script []op
	for k, i := range rng.Perm(len(units)) {
		for h := k * shape.hits / len(units); h < (k+1)*shape.hits/len(units); h++ {
			script = append(script, op{opHit, warm[rng.Intn(len(warm))]})
		}
		script = append(script, units[i]...)
	}
	return script
}

// sample is one answered request as the client saw it.
type sample struct {
	kind    opKind
	ms      float64
	backend string
	traceID string
	home    bool // served by the backend that answered the net first
	repeat  bool // the router had seen this net's fingerprint before
}

// fleetPass is what one pass of both clients' scripts observed.
type fleetPass struct {
	mu        sync.Mutex
	res       *result
	samples   []sample
	reqs      []float64 // cold answers (routes and jobs)
	areas     []float64
	answers   int
	degraded  int
	acceptMS  []float64
	jobDoneMS []float64
	wall      time.Duration
	home      map[string]string // net name → backend that answered it first
}

func (fp *fleetPass) fail(format string, args ...any) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.res.fail(format, args...)
}

// answered records one served answer; cold answers feed the quality means.
func (fp *fleetPass) answered(s sample, n *net.Net, r *service.RouteResponse) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.answers++
	if r.Tier != "" && r.Tier != "full" {
		fp.degraded++
	}
	if s.kind == opCold || s.kind == opJob {
		fp.reqs = append(fp.reqs, r.ReqAtDriverInputNS)
		fp.areas = append(fp.areas, r.BufferArea)
	}
	if s.kind == opJob {
		return
	}
	if h, ok := fp.home[n.Name]; ok {
		s.repeat, s.home = true, h == s.backend
	} else {
		fp.home[n.Name] = s.backend
	}
	fp.samples = append(fp.samples, s)
}

// checkServed rebuilds the served tree from its wire form, checks it is a
// valid tree for n, and checks that the benchmark's own Tree.Evaluate
// reproduces the served required time and buffer area.
func checkServed(n *net.Net, r *service.RouteResponse) error {
	p := flows.ProfileFor(n.N())
	t := &tree.Tree{Net: n}
	var err error
	if t.Root, err = nodeFromWire(p, r.Tree); err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	ev := t.Evaluate(p.Tech, p.Lib.Driver)
	if ev.ReqAtDriverInput != r.ReqAtDriverInputNS || ev.BufferArea != r.BufferArea {
		return fmt.Errorf("re-evaluated req %g area %g, served req %g area %g",
			ev.ReqAtDriverInput, ev.BufferArea, r.ReqAtDriverInputNS, r.BufferArea)
	}
	return nil
}

func nodeFromWire(p flows.Profile, w *service.TreeNode) (*tree.Node, error) {
	if w == nil {
		return nil, fmt.Errorf("missing tree node")
	}
	nd := &tree.Node{Pos: geom.Point{X: w.X, Y: w.Y}}
	switch w.Kind {
	case "source":
		nd.Kind = tree.KindSource
	case "steiner":
		nd.Kind = tree.KindSteiner
	case "sink":
		if w.Sink == nil {
			return nil, fmt.Errorf("sink node without index")
		}
		nd.Kind, nd.SinkIdx = tree.KindSink, *w.Sink
	case "buffer":
		nd.Kind = tree.KindBuffer
		found := false
		for _, g := range p.Lib.Buffers {
			if g.Name == w.Buffer {
				nd.Buffer, found = g, true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown buffer %q", w.Buffer)
		}
	default:
		return nil, fmt.Errorf("unknown node kind %q", w.Kind)
	}
	for _, c := range w.Children {
		cn, err := nodeFromWire(p, c)
		if err != nil {
			return nil, err
		}
		nd.Children = append(nd.Children, cn)
	}
	return nd, nil
}

// whatIfBudget picks a new area budget for a solved net: the largest
// frontier area below the served answer's, so the what-if asks for a
// genuinely different trade-off point on the same engine.
func whatIfBudget(r *service.RouteResponse) float64 {
	var best float64
	for _, f := range r.Frontier {
		if f.Area < r.BufferArea && f.Area > best {
			best = f.Area
		}
	}
	switch {
	case best > 0:
		return best
	case r.BufferArea > 0:
		return r.BufferArea
	}
	return 1 // an unbuffered answer: any positive budget admits it
}

// client runs one script against the router on its own connection.
type client struct {
	hc   *http.Client
	base string
	fp   *fleetPass
	warm map[string]warmAnswer
}

// warmAnswer is a warm-set net's presolved answer and the backend that
// served it, which is the net's home on the ring.
type warmAnswer struct {
	resp    *service.RouteResponse
	backend string
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

func (c *client) route(n *net.Net, areaBudget float64) (*service.RouteResponse, sample, error) {
	body, err := json.Marshal(service.RouteRequest{Net: n, AreaBudget: areaBudget})
	if err != nil {
		return nil, sample{}, err
	}
	status, rb, backend, dur, err := post(c.hc, c.base+"/v1/route", body)
	if err != nil {
		return nil, sample{}, err
	}
	if status != http.StatusOK {
		return nil, sample{}, fmt.Errorf("status %d: %s", status, rb)
	}
	var r service.RouteResponse
	if err := json.Unmarshal(rb, &r); err != nil {
		return nil, sample{}, err
	}
	return &r, sample{ms: ms(dur), backend: backend, traceID: r.TraceID}, nil
}

func (c *client) run(script []op) {
	var last *service.RouteResponse
	for _, o := range script {
		c.fp.mu.Lock()
		c.fp.res.attempted++
		c.fp.mu.Unlock()
		switch o.kind {
		case opHit:
			r, s, err := c.route(o.net, 0)
			if err == nil && !r.Cached {
				err = fmt.Errorf("not served from the result cache")
			}
			if w := c.warm[o.net.Name].resp; err == nil && (r.ReqAtDriverInputNS != w.ReqAtDriverInputNS || r.BufferArea != w.BufferArea || r.Wirelength != w.Wirelength) {
				err = fmt.Errorf("hit answered req %g area %g, cold answer was req %g area %g",
					r.ReqAtDriverInputNS, r.BufferArea, w.ReqAtDriverInputNS, w.BufferArea)
			}
			if err != nil {
				c.fp.fail("serve-fleet hit %s: %v", o.net.Name, err)
				continue
			}
			s.kind = opHit
			c.fp.answered(s, o.net, r)
		case opCold:
			r, s, err := c.route(o.net, 0)
			if err == nil {
				err = checkServed(o.net, r)
			}
			last = nil
			if err != nil {
				c.fp.fail("serve-fleet cold %s: %v", o.net.Name, err)
				continue
			}
			last = r
			s.kind = opCold
			c.fp.answered(s, o.net, r)
			fmt.Fprintf(os.Stderr, "net %s n=%d loops=%d frontier=%d req=%.6f area=%.3f tier=%s\n",
				o.net.Name, o.net.N(), r.Loops, len(r.Frontier), r.ReqAtDriverInputNS, r.BufferArea, r.Tier)
		case opWhatIf:
			if last == nil {
				c.fp.fail("serve-fleet what-if %s: its cold request failed", o.net.Name)
				continue
			}
			budget := whatIfBudget(last)
			r, s, err := c.route(o.net, budget)
			if err == nil {
				err = checkServed(o.net, r)
			}
			// The frontier sums buffer areas in DP order and the tree in walk
			// order, so the same solution can differ in the last bits.
			if err == nil && r.BufferArea > budget*(1+1e-9) {
				err = fmt.Errorf("area %g over the budget %g", r.BufferArea, budget)
			}
			if err != nil {
				c.fp.fail("serve-fleet what-if %s: %v", o.net.Name, err)
				continue
			}
			s.kind = opWhatIf
			c.fp.answered(s, o.net, r)
		case opJob:
			if err := c.job(o.net); err != nil {
				c.fp.fail("serve-fleet job %s: %v", o.net.Name, err)
			}
		}
	}
}

// job submits n to POST /v1/jobs, polls it until it is terminal, and checks
// the inline result.
func (c *client) job(n *net.Net) error {
	body, err := json.Marshal(service.RouteRequest{Net: n})
	if err != nil {
		return err
	}
	start := time.Now()
	status, rb, _, accept, err := post(c.hc, c.base+"/v1/jobs", body)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("submit status %d: %s", status, rb)
	}
	var st service.JobStatus
	if err := json.Unmarshal(rb, &st); err != nil {
		return err
	}
	for !service.JobState(st.State).Terminal() {
		time.Sleep(10 * time.Millisecond)
		if err := getJSON(c.hc, c.base+"/v1/jobs/"+st.ID, &st); err != nil {
			return err
		}
	}
	done := time.Since(start)
	if st.Result == nil {
		return fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	if err := checkServed(n, st.Result); err != nil {
		return err
	}
	c.fp.mu.Lock()
	c.fp.acceptMS = append(c.fp.acceptMS, ms(accept))
	c.fp.jobDoneMS = append(c.fp.jobDoneMS, ms(done))
	c.fp.mu.Unlock()
	c.fp.answered(sample{kind: opJob}, n, st.Result)
	return nil
}

// presolve solves the warm set through the router, one net at a time from
// each client, and returns the answers the hits must repeat.
func presolve(f *fleet, warm []*net.Net) (map[string]warmAnswer, error) {
	out := make(map[string]warmAnswer, len(warm))
	var mu sync.Mutex
	errs := make([]error, fleetClients)
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{hc: newHTTPClient(), base: f.base}
			for i := c; i < len(warm); i += fleetClients {
				r, s, err := cl.route(warm[i], 0)
				if err == nil {
					err = checkServed(warm[i], r)
				}
				if err != nil {
					errs[c] = fmt.Errorf("presolve %s: %w", warm[i].Name, err)
					return
				}
				mu.Lock()
				out[warm[i].Name] = warmAnswer{r, s.backend}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// servePass boots a fleet (three times when measuring set-up), runs both
// clients' scripts against it once, and stops it.
type servePass struct {
	fp       *fleetPass
	setupS   float64
	rssMB    float64
	before   fleetCounters
	after    fleetCounters
	gcCycles int
	gcMS     float64
	traces   []*trace.TraceJSON // backend traces of the route samples, by sample
}

func runPass(cfg config, res *result, traced bool, setupReps int, scripts [][]op, ports []int) (*servePass, error) {
	warm := warmSet()
	type booted struct {
		f    *fleet
		warm map[string]warmAnswer
	}
	k := 0
	b, setupS, err := medianSetup(setupReps, func() (booted, error) {
		k++
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("fleet-seed%d-%d", cfg.seed, k))
		f, err := bootFleet(cfg, dir, traced, ports)
		if err != nil {
			return booted{}, err
		}
		answers, err := presolve(f, warm)
		if err != nil {
			f.stop()
			return booted{}, err
		}
		return booted{f, answers}, nil
	}, func(b booted) { b.f.stop() })
	if err != nil {
		return nil, err
	}
	f := b.f
	sp := &servePass{setupS: setupS, fp: &fleetPass{res: res, home: map[string]string{}}}
	for name, w := range b.warm {
		sp.fp.home[name] = w.backend
	}
	hc := newHTTPClient()
	if sp.before, err = f.counters(); err != nil {
		f.stop()
		return nil, err
	}
	logOff := f.logSizes()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			(&client{hc: newHTTPClient(), base: f.base, fp: sp.fp, warm: b.warm}).run(scripts[c])
		}(c)
	}
	wg.Wait()
	sp.fp.wall = time.Since(start)
	sp.after, err = f.counters()
	if err == nil && traced {
		err = sp.fetchTraces(f, hc, logOff)
	}
	sp.rssMB = f.stop()
	return sp, err
}

// fetchTraces reads every route sample's backend trace and the backends'
// GC trace for the measured phase.
func (sp *servePass) fetchTraces(f *fleet, hc *http.Client, logOff []int64) error {
	sp.traces = make([]*trace.TraceJSON, len(sp.fp.samples))
	for i, s := range sp.fp.samples {
		if s.traceID == "" {
			continue
		}
		var tj trace.TraceJSON
		if err := getJSON(hc, s.backend+"/v1/trace/"+s.traceID, &tj); err != nil {
			return fmt.Errorf("trace %s: %w", s.traceID, err)
		}
		sp.traces[i] = &tj
	}
	for i, b := range f.backends {
		n, pause, err := gcSince(b.logPath, logOff[i])
		if err != nil {
			return err
		}
		sp.gcCycles += n
		sp.gcMS += pause
	}
	return nil
}

func (sp *servePass) latencies(kind opKind) []float64 {
	var out []float64
	for _, s := range sp.fp.samples {
		if s.kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

// homeIndex returns each net's home backend (0 or 1) on the ring
// merlinrouter builds over the backends on ports: the same URLs in the same
// order, the default vnode count, and the canonical net bytes hashed as the
// router hashes them.
func homeIndex(ports []int) (func(*net.Net) int, error) {
	urls := []string{portURL(ports[0]), portURL(ports[1])}
	ring, err := router.NewRing(urls, 0)
	if err != nil {
		return nil, err
	}
	return func(n *net.Net) int {
		if ring.PickString(string(n.AppendCanonical(nil)))[0] == urls[0] {
			return 0
		}
		return 1
	}, nil
}

func runServeFleet(cfg config) (*result, error) {
	shape := shapeFor(cfg)
	warm := warmSet()
	ports, err := fleetPorts()
	if err != nil {
		return nil, err
	}
	home, err := homeIndex(ports)
	if err != nil {
		return nil, err
	}
	// Client c's cold, what-if and job nets are all homed on backend c, so a
	// client's solve never queues behind the other client's: that queueing
	// moved nets_per_s and the cold tail by 20–25% between runs of one
	// seed. Hits still go to both backends and meet the other client's DP
	// load and garbage collections.
	nets := drawN6Homed(rand.New(rand.NewSource(cfg.seed)), shape.cold+shape.jobs, fleetClients, home)
	scripts := make([][]op, fleetClients)
	for c := range scripts {
		scripts[c] = clientScript(cfg, c, shape, warm, nets[c])
	}
	res := newResult()
	if cfg.traced {
		return tracedServeFleet(cfg, res, scripts, ports)
	}
	sp, err := runPass(cfg, res, false, 3, scripts, ports)
	if err != nil {
		return nil, err
	}
	v := res.values
	v["nets_per_s"] = float64(sp.fp.answers) / sp.fp.wall.Seconds()
	v["req_ns_mean"] = mean(sp.fp.reqs)
	v["buffer_area_mean"] = mean(sp.fp.areas)
	v["peak_rss_mb"] = sp.rssMB
	v["setup_s"] = sp.setupS
	hits, cold := sp.latencies(opHit), sp.latencies(opCold)
	v["route_hit_ms_p50"] = quantile(hits, 0.5)
	v["route_hit_ms_p99"] = quantile(hits, 0.99)
	v["route_cold_ms_p50"] = quantile(cold, 0.5)
	v["route_cold_ms_p90"] = quantile(cold, 0.9)
	fmt.Fprintf(os.Stderr, "serve-fleet: %d answers (%d hits, %d cold routes) in %.2fs\n",
		sp.fp.answers, len(hits), len(cold), sp.fp.wall.Seconds())
	return res, nil
}

// tracedServeFleet serves the script once on an untraced fleet and once on
// a traced one; per-layer metrics come from the traced pass.
func tracedServeFleet(cfg config, res *result, scripts [][]op, ports []int) (*result, error) {
	plain, err := runPass(cfg, res, false, 1, scripts, ports)
	if err != nil {
		return nil, err
	}
	sp, err := runPass(cfg, res, true, 1, scripts, ports)
	if err != nil {
		return nil, err
	}
	rec := newSpanLog(cfg, "serve-fleet")
	var queueMS, rungMS, persistMS, constructMS, extractMS, hopMS []float64
	for i, s := range sp.fp.samples {
		tj := sp.traces[i]
		if tj == nil {
			continue
		}
		rec.addJSON("backend", tj)
		queueMS = append(queueMS, spanDurationsMS(tj, "queue.wait")...)
		rungMS = append(rungMS, spanDurationsMS(tj, "rung.full")...)
		persistMS = append(persistMS, spanDurationsMS(tj, "journal.persist")...)
		extractMS = append(extractMS, spanDurationsMS(tj, "dp.extract")...)
		if s.kind == opCold {
			constructMS = append(constructMS, spanTotalMS(tj, "dp.construct"))
		}
		if route := spanDurationsMS(tj, "route"); len(route) == 1 {
			hopMS = append(hopMS, s.ms-route[0])
		}
	}
	d := func(name string) float64 {
		return float64(sp.after.backend[name] - sp.before.backend[name])
	}
	r := func(name string) float64 {
		return float64(sp.after.router[name] - sp.before.router[name])
	}
	var hedgeWins float64
	for _, s := range sp.fp.samples {
		if s.repeat && !s.home {
			hedgeWins++
		}
	}
	v := res.values
	v["core.construct_ms.n6"] = quantile(constructMS, 0.5)
	v["core.extract_ms"] = quantile(extractMS, 0.5)
	v["runtime.gc_cycles"] = float64(sp.gcCycles)
	v["runtime.gc_pause_ms"] = sp.gcMS
	v["service.queue_wait_ms_p50"] = quantile(queueMS, 0.5)
	v["service.queue_wait_ms_p90"] = quantile(queueMS, 0.9)
	v["service.rung_full_ms_p50"] = quantile(rungMS, 0.5)
	v["service.cache_hit_ratio"] = ratio(d("cache.hits"), d("cache.hits")+d("cache.store_warms")+d("cache.misses"))
	v["service.engine_cache_hit_ratio"] = ratio(d("engine_cache.hits"), d("engine_cache.hits")+d("engine_cache.misses"))
	v["service.whatif_ms_p50"] = quantile(sp.latencies(opWhatIf), 0.5)
	v["journal.persist_ms_p50"] = quantile(persistMS, 0.5)
	v["journal.accept_ms_p50"] = quantile(sp.fp.acceptMS, 0.5)
	v["journal.job_done_ms_p50"] = quantile(sp.fp.jobDoneMS, 0.5)
	v["journal.replica_push_failures"] = float64(sp.after.pushFailures - sp.before.pushFailures)
	v["router.hop_ms_p50"] = quantile(hopMS, 0.5)
	v["router.hop_ms_p99"] = quantile(hopMS, 0.99)
	v["router.hedges_launched"] = r("hedge.fired")
	v["router.hedge_win_ratio"] = ratio(hedgeWins, r("hedge.fired"))
	v["router.qos_rejected"] = r("qos.denied_rate") + r("qos.denied_concurrency")
	v["trace.overhead_pct"] = overheadPct(plain.fp.wall, sp.fp.wall)
	v["degraded_ratio"] = ratio(float64(plain.fp.degraded+sp.fp.degraded), float64(plain.fp.answers+sp.fp.answers))
	return res, rec.write()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
