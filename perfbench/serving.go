package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seculator"
	"seculator/internal/gateway"
	"seculator/internal/host"
	"seculator/internal/nn"
	"seculator/internal/serve"
	"seculator/internal/serve/chaos"
)

// servingSpec is one serving workload: which networks each round asks
// for, through which front end, and how model seeds and inputs vary.
type servingSpec struct {
	name    string
	gateway bool          // through an in-process 2-replica gateway fleet (gateway.StartLocal)
	nets    []string      // one request per network per round, in this order
	pinned  bool          // one model seed per network and a pool of inputs; otherwise a pool of model seeds per network
	session bool          // each round is a session inference, then a stateless one (pinned, one network)
	limit   time.Duration // latency limit of the capacity phase
}

var (
	gatewayMini = servingSpec{name: "gateway-mini", gateway: true, nets: []string{"Mini"},
		pinned: true, session: true, limit: 25 * time.Millisecond}
	deepResident = servingSpec{name: "deep-resident", nets: []string{"MobileNet/8"},
		pinned: true, limit: 100 * time.Millisecond}
	coldModels = servingSpec{name: "cold-models", nets: []string{"Mini", "ResNet18/16", "MobileNet/16"},
		limit: 250 * time.Millisecond}
)

const (
	// poolSize is the number of inputs per pinned network, or of model
	// seeds per network on cold-models. 3 networks × 16 seeds = 48
	// (network, seed) pairs cycled in order, more than the server's 32
	// resident models, so every cold-models request provisions.
	poolSize = 16
	// setupRepeats is how many times a run starts and warms the server
	// (or fleet); setup_s is the median.
	setupRepeats = 15
	// warmFor is the unreported closed loop between set-up and timing.
	warmFor = time.Second
	// window is the length of one latency or capacity window.
	window = time.Second
)

// refRequest is one request of a workload's pool with its reference
// output checksum.
type refRequest struct {
	net   string
	seed  int64   // model seed
	input []int32 // explicit input; nil means the seed's own input
	want  uint64
}

// references builds each network's pool of requests and computes every
// reference checksum from the unprotected model (nn.ForwardNetwork),
// before anything is timed. Everything derives from seed.
func (s servingSpec) references(seed int64) ([][]refRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	pools := make([][]refRequest, len(s.nets))
	for j, name := range s.nets {
		net, err := serve.ResolveNetwork(name)
		if err != nil {
			return nil, err
		}
		if s.pinned {
			modelSeed := rng.Int63n(1 << 40)
			_, ws := nn.RandomModel(net, modelSeed)
			first := net.Layers[0]
			for i := 0; i < poolSize; i++ {
				in := nn.NewTensor(first.C, first.H, first.W)
				in.Randomize(rng.Int63())
				out, err := nn.ForwardNetwork(net, in, ws)
				if err != nil {
					return nil, err
				}
				pools[j] = append(pools[j], refRequest{net: name, seed: modelSeed, input: in.Data, want: referenceSum(out)})
			}
			continue
		}
		for i := 0; i < poolSize; i++ {
			modelSeed := rng.Int63n(1 << 40)
			in, ws := nn.RandomModel(net, modelSeed)
			out, err := nn.ForwardNetwork(net, in, ws)
			if err != nil {
				return nil, err
			}
			pools[j] = append(pools[j], refRequest{net: name, seed: modelSeed, want: referenceSum(out)})
		}
	}
	return pools, nil
}

// target is a running server or fleet with the benchmark's client.
type target struct {
	url      string
	client   *http.Client
	stop     func()
	sessions []string // one per closed-loop worker (session workloads)
	fleet    *gateway.LocalCluster
}

// start brings up the server or fleet. lace switches the replay attack
// on for every session inference while it is set.
func (s servingSpec) start(lace *atomic.Bool, conns int) (*target, error) {
	intercept := func(string) host.Intercept {
		if lace.Load() {
			return chaos.ReplayIntercept()
		}
		return nil
	}
	// The transport keeps at most conns connections, the closed loop's
	// worker count.
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns, DisableCompression: true}
	t := &target{client: &http.Client{Transport: tr, Timeout: time.Minute}}
	if s.gateway {
		c, err := gateway.StartLocal(gateway.LocalOptions{
			Replicas:     2,
			ServeOptions: func(int) serve.Options { return serve.Options{InterceptFor: intercept} },
		})
		if err != nil {
			return nil, err
		}
		t.url, t.fleet = c.GatewayURL, c
		t.stop = func() { tr.CloseIdleConnections(); c.Stop() }
		return t, nil
	}
	srv, err := serve.New(serve.Options{InterceptFor: intercept})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	t.url = hs.URL
	t.stop = func() {
		tr.CloseIdleConnections()
		hs.CloseClientConnections()
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}
	return t, nil
}

func (t *target) post(path string, body []byte) (int, []byte, error) {
	resp, err := t.client.Post(t.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (t *target) get(path string) (string, error) {
	resp, err := t.client.Get(t.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func (t *target) openSession() (string, error) {
	status, b, err := t.post("/v1/sessions", []byte("{}"))
	if err != nil {
		return "", err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return "", fmt.Errorf("open session: status %d: %s", status, b)
	}
	var sr serve.SessionCreateResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		return "", fmt.Errorf("open session: %w", err)
	}
	return sr.SessionID, nil
}

func inferBody(r refRequest, session string) []byte {
	b, err := json.Marshal(serve.InferRequest{Network: r.net, Seed: r.seed, Input: r.input, Session: session})
	if err != nil {
		panic(err) // a plain struct of strings and numbers always marshals
	}
	return b
}

// infer sends one pre-encoded request and checks its output checksum. It
// returns the reply, whether the request succeeded, and a description of
// what went wrong otherwise; wrong reports a checksum mismatch.
func (t *target) infer(body []byte, want uint64) (rep serve.InferResponse, ok, wrong bool, why string) {
	status, b, err := t.post("/v1/infer", body)
	switch {
	case err != nil:
		return rep, false, false, err.Error()
	case status != http.StatusOK:
		return rep, false, false, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, false, false, err.Error()
	}
	if err := checkOutputSum(rep.OutputSum, want); err != nil {
		return rep, false, true, err.Error()
	}
	return rep, true, false, ""
}

// warm opens one session per worker on session workloads and sends the
// first request for every network (and on every session), the set-up a
// freshly started server needs before it serves at speed.
func (s servingSpec) warm(t *target, pools [][]refRequest, workers int) error {
	if s.session {
		t.sessions = t.sessions[:0]
		for w := 0; w < workers; w++ {
			id, err := t.openSession()
			if err != nil {
				return err
			}
			t.sessions = append(t.sessions, id)
			if _, ok, _, why := t.infer(inferBody(pools[0][0], id), pools[0][0].want); !ok {
				return fmt.Errorf("warm session inference: %s", why)
			}
		}
	}
	for _, pool := range pools {
		if _, ok, _, why := t.infer(inferBody(pool[0], ""), pool[0].want); !ok {
			return fmt.Errorf("warm %s: %s", pool[0].net, why)
		}
	}
	return nil
}

// replayCheck sends one session inference with the replay attack laced
// into its command channel and requires it to be refused as a breach.
func (s servingSpec) replayCheck(t *target, lace *atomic.Bool, r refRequest) error {
	id, err := t.openSession()
	if err != nil {
		return err
	}
	lace.Store(true)
	status, b, err := t.post("/v1/infer", inferBody(r, id))
	lace.Store(false)
	if err != nil {
		return err
	}
	var eb serve.ErrorBody
	_ = json.Unmarshal(b, &eb) // a non-JSON body leaves the class empty, which the check rejects
	return checkBreachRefusal(status, eb.Class)
}

// replyStats accumulates the response fields a traced run attributes
// time with.
type replyStats struct {
	n                          int
	run, queue, batch, command float64
	hits                       int
	clientMs                   float64
}

func (a *replyStats) add(rep serve.InferResponse, d time.Duration) {
	a.n++
	a.run += rep.RunMs
	a.queue += rep.QueueMs
	a.batch += float64(rep.BatchSize)
	a.command += float64(rep.Commands)
	a.clientMs += ms(d)
	if rep.ResidencyHit {
		a.hits++
	}
}

func (a *replyStats) merge(b replyStats) {
	a.n += b.n
	a.run += b.run
	a.queue += b.queue
	a.batch += b.batch
	a.command += b.command
	a.clientMs += b.clientMs
	a.hits += b.hits
}

func (a replyStats) mean(sum float64) float64 {
	if a.n == 0 {
		return 0
	}
	return sum / float64(a.n)
}

// loadState is one run's request plan and running tallies.
type loadState struct {
	spec      servingSpec
	t         *target
	pools     [][]refRequest
	stateless [][][]byte   // [network][pool index] encoded body
	session   [][][]byte   // [worker][pool index] encoded session body (network 0)
	round     int          // operations per round
	rounds    atomic.Int64 // round cursor shared by the workers of a phase
	cur       []int64      // each worker's current round

	mu       sync.Mutex
	wrong    int64
	firstErr string
	stats    []replyStats // per worker, traced runs only
	tracing  bool
}

func newLoadState(s servingSpec, t *target, pools [][]refRequest, workers int, tracing bool) *loadState {
	ls := &loadState{spec: s, t: t, pools: pools, round: len(s.nets), cur: make([]int64, workers), tracing: tracing}
	if s.session {
		ls.round = 2
		for w := 0; w < workers; w++ {
			var bodies [][]byte
			for _, r := range pools[0] {
				bodies = append(bodies, inferBody(r, t.sessions[w]))
			}
			ls.session = append(ls.session, bodies)
		}
	}
	for _, pool := range pools {
		var bodies [][]byte
		for _, r := range pool {
			bodies = append(bodies, inferBody(r, ""))
		}
		ls.stateless = append(ls.stateless, bodies)
	}
	return ls
}

// phase runs one closed-loop phase and returns it with the traced reply
// statistics (zero unless tracing).
func (ls *loadState) phase(workers int, dur time.Duration) (phaseResult, replyStats) {
	ls.stats = make([]replyStats, workers)
	res := closedLoop(workers, ls.round, dur, ls.spec.limit, ls.op)
	var st replyStats
	for _, s := range ls.stats {
		st.merge(s)
	}
	return res, st
}

// op is worker w's k-th operation. Rounds are claimed from a shared
// cursor so that concurrent workers still walk each pool in order.
func (ls *loadState) op(w, k int) bool {
	j := k % ls.round
	if j == 0 {
		ls.cur[w] = ls.rounds.Add(1) - 1
	}
	r := int(ls.cur[w])
	var body []byte
	var want uint64
	switch {
	case ls.spec.session:
		i := (2*r + j) % poolSize
		want = ls.pools[0][i].want
		if j == 0 {
			body = ls.session[w][i]
		} else {
			body = ls.stateless[0][i]
		}
	default:
		i := r % poolSize
		body, want = ls.stateless[j][i], ls.pools[j][i].want
	}
	t0 := time.Now()
	rep, ok, wrong, why := ls.t.infer(body, want)
	d := time.Since(t0)
	if !ok {
		ls.mu.Lock()
		if wrong {
			ls.wrong++
		}
		if ls.firstErr == "" {
			ls.firstErr = why
		}
		ls.mu.Unlock()
		return false
	}
	if ls.tracing {
		ls.stats[w].add(rep, d)
	}
	return true
}

// upstream reads the gateway's summed replica round-trip time (ms) and
// request count from its /metrics.
func (t *target) upstream() (sumMs, n float64, err error) {
	scrape, err := t.get("/metrics")
	if err != nil {
		return 0, 0, err
	}
	for _, r := range t.fleet.Replicas {
		label := fmt.Sprintf("replica=%q", r.Name)
		sumMs += chaos.MetricValueLabeled(scrape, "seculator_gateway_replica_latency_ms_total", label)
		n += chaos.MetricValueLabeled(scrape, "seculator_gateway_replica_requests_total", label)
	}
	return sumMs, n, nil
}

func (s servingSpec) run(ctx context.Context, rc runConfig) (*outcome, error) {
	workers := runtime.NumCPU()
	pools, err := s.references(rc.seed)
	if err != nil {
		return nil, err
	}
	var lace atomic.Bool
	var setups []float64
	var t *target
	for i := 0; i < setupRepeats; i++ {
		if t != nil {
			t.stop()
		}
		seculator.ResetSimCache() // every start is as cold as a new process's
		runtime.GC()
		t0 := time.Now()
		if t, err = s.start(&lace, workers); err != nil {
			return nil, err
		}
		if err := s.warm(t, pools, workers); err != nil {
			t.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer t.stop()

	oc := &outcome{correct: true, metrics: map[string]float64{}}
	if err := s.replayCheck(t, &lace, pools[0][0]); err != nil {
		oc.correct = false
		logf(rc.out, "CHECK FAILED: %v", err)
	}

	ls := newLoadState(s, t, pools, workers, rc.trace)
	warm, _ := ls.phase(workers, warmFor)

	// The timed part alternates latency windows (one request outstanding)
	// with capacity windows (one per worker), so both see the same
	// stretch of the host's load. p50_ms pools every latency sample; the
	// traced run's p90 is the median over latency windows of each window's
	// p90 (about 100 to 500 samples a window, so at least ten lie beyond
	// it). It is not an end-to-end metric: it did not repeat within 25%
	// between runs on the reference host (README.md). capacity_rps and
	// cpu_ms_per_op are medians over the capacity windows, and
	// peak_rss_mib the median over the window pairs of each pair's peak
	// resident set.
	n := int(rc.seconds / (2 * window))
	if n < 1 {
		n = 1
	}
	per := rc.seconds / time.Duration(2*n)
	var lat, capa phaseResult
	var latStats, capStats replyStats
	var p90s, rates, cpus, rss []float64
	var ms0, ms1 runtime.MemStats
	var upMs, upN float64
	sampler := startRSSSampler()
	defer sampler.close()
	runtime.GC()
	if rc.trace {
		runtime.ReadMemStats(&ms0)
	}
	for i := 0; i < n; i++ {
		sampler.take()
		var u0, n0 float64
		if rc.trace && s.gateway {
			if u0, n0, err = t.upstream(); err != nil {
				return nil, err
			}
		}
		l, lst := ls.phase(1, per)
		if rc.trace && s.gateway {
			u1, n1, err := t.upstream()
			if err != nil {
				return nil, err
			}
			upMs, upN = upMs+u1-u0, upN+n1-n0
		}
		cpu0 := cpuTime()
		c, cst := ls.phase(workers, per)
		cpu := cpuTime() - cpu0
		p90s = append(p90s, l.percentileMs(0.9))
		lat.merge(l)
		capa.merge(c)
		latStats.merge(lst)
		capStats.merge(cst)
		rss = append(rss, sampler.take())
		rates = append(rates, c.rate())
		cpus = append(cpus, ms(cpu)/float64(max(c.attempted-c.failed, 1)))
	}
	if rc.trace {
		runtime.ReadMemStats(&ms1)
	}

	for _, p := range []phaseResult{warm, lat, capa} {
		oc.attempted += p.attempted
		oc.failed += p.failed
	}
	if ls.wrong > 0 {
		oc.correct = false
	}
	if ls.firstErr != "" {
		logf(rc.out, "first failure: %s", ls.firstErr)
	}
	logf(rc.out, "%s: setup %.4fs (median of %d); %d window pairs of %v; latency n=%d p50=%.3fms p90=%.3fms (median of windows, %d samples each on average); capacity n=%d workers=%d %.1f req/s within %v (median of windows); failed=%d wrong=%d",
		s.name, median(setups), len(setups), n, per, lat.attempted, lat.percentileMs(0.5), median(p90s), lat.attempted/int64(n),
		capa.attempted, workers, median(rates), s.limit, oc.failed, ls.wrong)

	if !rc.trace {
		oc.metrics["p50_ms"] = lat.percentileMs(0.5)
		oc.metrics["capacity_rps"] = median(rates)
		oc.metrics["cpu_ms_per_op"] = median(cpus)
		oc.metrics["peak_rss_mib"] = median(rss)
		oc.metrics["setup_s"] = median(setups)
		return oc, nil
	}

	m := oc.metrics
	m["trace.p50_ms"] = lat.percentileMs(0.5)
	m["trace.p90_ms"] = median(p90s)
	m["serve.run_ms"] = latStats.mean(latStats.run)
	m["serve.queue_ms"] = capStats.mean(capStats.queue)
	m["serve.batch_size"] = capStats.mean(capStats.batch)
	var both replyStats
	both.merge(latStats)
	both.merge(capStats)
	m["serve.residency_hit_ratio"] = both.mean(float64(both.hits))
	m["host.commands_per_req"] = both.mean(both.command)
	replicaSide := latStats.mean(latStats.clientMs)
	if s.gateway && upN > 0 {
		replicaSide = upMs / upN
		m["gateway.self_ms"] = latStats.mean(latStats.clientMs) - replicaSide
	}
	m["serve.http_ms"] = replicaSide - latStats.mean(latStats.queue) - latStats.mean(latStats.run)
	if reqs := float64(lat.attempted + capa.attempted); reqs > 0 {
		m["runtime.alloc_kib_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / reqs
		m["runtime.gc_per_kreq"] = float64(ms1.NumGC-ms0.NumGC) * 1000 / reqs
		m["runtime.gc_pause_ms_per_kreq"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 * 1000 / reqs
	}
	if err := s.probeModules(ctx, pools, m); err != nil {
		return nil, err
	}
	probeKernels(m)
	return oc, nil
}

// probeModules times the modules a request passes through, called
// directly on the workload's own networks and model seeds: model
// generation, the unprotected forward pass, weight provisioning and the
// resident secure run split by DNN layer type. Values are per request,
// averaged over the workload's networks.
func (s servingSpec) probeModules(ctx context.Context, pools [][]refRequest, m map[string]float64) error {
	var sum moduleTimes
	for j, name := range s.nets {
		net, err := serve.ResolveNetwork(name)
		if err != nil {
			return err
		}
		mt, err := probeNetwork(ctx, net, pools[j])
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		sum.add(mt)
	}
	sum.scale(1 / float64(len(s.nets)))
	sum.into(m)
	return nil
}
