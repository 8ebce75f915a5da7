package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"time"

	"anton/internal/machine"
	"anton/internal/serve"
	"anton/internal/sim"
)

// serve-90hit: one op is one POST /api/v1/run through the handler of an
// in-process server, with in-memory request and response objects, so no
// listener or loopback TCP is timed. Nine ops in ten replay the server's
// default mix in seeded order and must be cache hits; every tenth is a
// fig6 request with a fault seed never used before, a guaranteed miss
// that builds a fresh faulted 512-node machine on the DES worker.
const (
	missEvery = 10
	// serveCache is cmd/antonserve's default cache bound.
	serveCache = 256
	// harnessSamples is how many misses of the traced phase are run again
	// through the harness, without and with their fault plan.
	harnessSamples = 64
)

func init() {
	register(&workload{name: "serve-90hit", minOps: p99Samples, setup: setupServe})
}

// serveConfig is cmd/antonserve's default configuration.
func serveConfig() serve.Config {
	return serve.Config{
		CacheEntries: serveCache,
		Sched:        serve.SchedConfig{DESWorkers: 1, AnalyticWorkers: 1, QueueDepth: 64, SessionWorkers: 1},
	}
}

// plannedOp is one request of the plan and the cache outcome it must get.
type plannedOp struct {
	body    []byte
	outcome serve.Outcome
	mix     int // DefaultMix index of a hit, -1 for a miss
}

// mixBodies returns the request bodies of the default mix.
func mixBodies() ([][]byte, error) {
	var out [][]byte
	for _, r := range serve.DefaultMix() {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// planOp returns op i of the plan for seed, a pure function of its
// arguments. Hits walk seeded permutations of the mix, so every mix entry
// recurs within two rounds and none can age out of the LRU cache.
func planOp(seed int64, mix [][]byte, i int) plannedOp {
	if i%missEvery == missEvery-1 {
		return plannedOp{body: missBody(seed, i/missEvery), outcome: serve.Miss, mix: -1}
	}
	h := i/missEvery*(missEvery-1) + i%missEvery
	n := len(mix)
	j := permutation(seed, h/n, n)[h%n]
	return plannedOp{body: mix[j], outcome: serve.Hit, mix: j}
}

// missBody is the k-th miss of seed's plan: fig6 quick under a
// corruption plan whose fault seed no other op of the run uses.
func missBody(seed int64, k int) []byte {
	faultSeed := uint64(seed)<<32 + 1000 + uint64(k)
	return []byte(fmt.Sprintf(`{"experiment":"fig6","faults":"seed=%d,corrupt=1e-4","quick":true}`, faultSeed))
}

// permutation returns the seeded permutation of 0..n-1 for one round.
func permutation(seed int64, round, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(round))
	for i := n - 1; i > 0; i-- {
		x = splitmix64(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// expectStats is the cache's counters after the set-up pass (warmHits
// hits on warmDigests distinct digests) and a plan prefix of hits and
// misses: one client never joins, and each miss beyond the cache bound
// evicts the oldest miss.
func expectStats(warmHits, warmDigests, hits, misses int) serve.Stats {
	stored := warmDigests + misses
	return serve.Stats{
		Hits:      uint64(warmHits + hits),
		Misses:    uint64(stored),
		Evictions: uint64(max(0, stored-serveCache)),
		Entries:   min(stored, serveCache),
	}
}

// missRecord is a traced miss kept to rerun through the harness.
type missRecord struct {
	req    *serve.NormRequest
	report string
}

type serveHit struct {
	seed int64
	srv  *serve.Server
	h    http.Handler
	mix  [][]byte
	// digest of every mix entry, and the set-up body of every digest.
	mixDigest []string
	warmBody  map[string][]byte
	warmHits  int
	warm      time.Duration

	hits, misses int
	// sum is the order-independent checksum of every body: the sum of
	// their FNV-64a hashes.
	sum    uint64
	traced []missRecord

	build       time.Duration
	buildAllocs uint64
}

// setupServe builds the server and answers the default mix once: six
// digests at both fidelities, a faulted variant, spellings that share a
// digest, and the analytic tier's DES calibration.
func setupServe(seed int64, tr *tracer) (instance, error) {
	tr.begin("setup")
	defer tr.end()
	mix, err := mixBodies()
	if err != nil {
		return nil, err
	}
	s := &serveHit{seed: seed, mix: mix, warmBody: map[string][]byte{}}
	if tr != nil {
		s.build, s.buildAllocs = build(tr, "machine.Default512", func() { machine.Default512(sim.New()) })
	}
	tr.begin("serve.New")
	s.srv, err = serve.New(serveConfig())
	tr.end()
	if err != nil {
		return nil, err
	}
	s.h = s.srv.Handler()
	t0 := time.Now()
	for _, body := range mix {
		req, err := serve.ParseRequest(body)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("mix request %s: %w", body, err)
		}
		digest := req.Digest()
		s.mixDigest = append(s.mixDigest, digest)
		want := serve.Miss
		if _, ok := s.warmBody[digest]; ok {
			want = serve.Hit
			s.warmHits++
		}
		tr.begin("serve.Server.Handler/warm")
		rec := s.post(body)
		tr.end()
		if err := checkReply(rec, want); err != nil {
			s.close()
			return nil, fmt.Errorf("mix request %s: %w", body, err)
		}
		if want == serve.Miss {
			s.warmBody[digest] = rec.Body.Bytes()
		} else if !bytes.Equal(rec.Body.Bytes(), s.warmBody[digest]) {
			s.close()
			return nil, fmt.Errorf("mix request %s: hit body differs from its first answer", body)
		}
	}
	s.warm = time.Since(t0)
	return s, nil
}

func (s *serveHit) post(body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/run", bytes.NewReader(body)))
	return rec
}

func checkReply(rec *httptest.ResponseRecorder, want serve.Outcome) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get(serve.CacheHeader); got != string(want) {
		return fmt.Errorf("cache outcome %q, want %q", got, want)
	}
	return nil
}

// Span names of the handler call, one per planned outcome.
var handlerSpan = map[serve.Outcome]string{serve.Hit: "serve.Server.Handler/hit", serve.Miss: "serve.Server.Handler/miss"}

func (s *serveHit) op(i int, tr *tracer) (time.Duration, error) {
	p := planOp(s.seed, s.mix, i)
	tr.begin("serve.ParseRequest")
	req, err := serve.ParseRequest(p.body)
	tr.end()
	if err != nil {
		return 0, fmt.Errorf("planned request %s: %w", p.body, err)
	}
	tr.begin("serve.NormRequest.Digest")
	digest := req.Digest()
	tr.end()
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/api/v1/run", bytes.NewReader(p.body))

	start := time.Now()
	tr.begin("op")
	tr.begin(handlerSpan[p.outcome])
	s.h.ServeHTTP(rec, hr)
	tr.end()
	tr.end()
	lat := time.Since(start)

	body := rec.Body.Bytes()
	s.sum += fnv64(body)
	if p.outcome == serve.Hit {
		s.hits++
	} else {
		s.misses++
	}
	if err := checkReply(rec, p.outcome); err != nil {
		return lat, err
	}
	if p.outcome == serve.Hit {
		if digest != s.mixDigest[p.mix] || !bytes.Equal(body, s.warmBody[digest]) {
			return lat, fmt.Errorf("hit on %s: body differs from its set-up answer", p.body)
		}
		return lat, nil
	}
	var got struct{ Digest, Faults, Report string }
	if err := json.Unmarshal(body, &got); err != nil {
		return lat, fmt.Errorf("miss on %s: %w", p.body, err)
	}
	if _, warm := s.warmBody[digest]; warm || got.Digest != digest || got.Faults != req.Faults || got.Report == "" {
		return lat, fmt.Errorf("miss on %s: digest %s faults %q, want a new digest %s with faults %q and a report",
			p.body, got.Digest, got.Faults, digest, req.Faults)
	}
	if tr != nil {
		if len(s.traced) == harnessSamples {
			s.traced = s.traced[1:]
		}
		s.traced = append(s.traced, missRecord{req: req, report: got.Report})
	}
	return lat, nil
}

// stats reads the cache counters through the handler.
func (s *serveHit) stats() (serve.Stats, error) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	var body struct {
		Cache serve.Stats `json:"cache"`
	}
	if rec.Code != http.StatusOK {
		return serve.Stats{}, fmt.Errorf("stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return serve.Stats{}, fmt.Errorf("stats: %w", err)
	}
	return body.Cache, nil
}

// finish checks the server's counters against the plan.
func (s *serveHit) finish() error {
	got, err := s.stats()
	if err != nil {
		return err
	}
	if want := expectStats(s.warmHits, len(s.warmBody), s.hits, s.misses); got != want {
		return fmt.Errorf("cache counters %+v, want %+v", got, want)
	}
	return nil
}

// layers reruns the traced phase's last misses through the harness on
// their own sessions, without and with the fault plan; the difference is
// the fault layer's cost, and the handler's miss time minus the faulted
// run is the serving tier's own cost.
func (s *serveHit) layers(tr *tracer, p *phase) (metrics, error) {
	plain, err := serve.ParseRequest([]byte(`{"experiment":"fig6","quick":true}`))
	if err != nil {
		return nil, err
	}
	var served struct{ Report string }
	if err := json.Unmarshal(s.warmBody[plain.Digest()], &served); err != nil {
		return nil, fmt.Errorf("fig6 set-up body: %w", err)
	}
	for _, r := range s.traced {
		tr.begin("harness.Experiment.RunWith/fig6")
		got := plain.Experiment.RunWith(plain.Session(1, nil), plain.Quick)
		tr.end()
		if got != served.Report {
			return nil, fmt.Errorf("harness fig6 report differs from the served one")
		}
		tr.begin("harness.Experiment.RunWith/fig6-faulted")
		got = r.req.Experiment.RunWith(r.req.Session(1, nil), r.req.Quick)
		tr.end()
		if got != r.report {
			return nil, fmt.Errorf("harness report for %s differs from the served one", r.req.Faults)
		}
	}
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	faulted := ms(medianDur(tr.durations("harness.Experiment.RunWith/fig6-faulted")))
	miss := ms(medianDur(tr.durations(handlerSpan[serve.Miss])))
	m := metrics{
		"harness.fig6_ms":         {ms(medianDur(tr.durations("harness.Experiment.RunWith/fig6"))), "ms"},
		"harness.fig6_faulted_ms": {faulted, "ms"},
		"serve.parse_us":          {us(medianDur(tr.durations("serve.ParseRequest"))), "us"},
		"serve.digest_us":         {us(medianDur(tr.durations("serve.NormRequest.Digest"))), "us"},
		"serve.hit_us":            {us(medianDur(tr.durations(handlerSpan[serve.Hit]))), "us"},
		"serve.miss_ms":           {miss, "ms"},
		"serve.miss_overhead_ms":  {miss - faulted, "ms"},
		"serve.warm_s":            {s.warm.Seconds(), "s"},
		"serve.hits":              {float64(st.Hits), "count"},
		"serve.misses":            {float64(st.Misses), "count"},
		"serve.joins":             {float64(st.Joins), "count"},
		"serve.evictions":         {float64(st.Evictions), "count"},
		"serve.entries":           {float64(st.Entries), "count"},
	}
	buildLayers(m, s.build, s.buildAllocs)
	return m, nil
}

// info returns the body checksums: warm_checksum covers the set-up
// answers, which are fixed per commit; body_checksum covers every op.
func (s *serveHit) info() map[string]any {
	var warm uint64
	for _, b := range s.warmBody {
		warm += fnv64(b)
	}
	return map[string]any{
		"hits": s.hits, "misses": s.misses,
		"warm_checksum": fmt.Sprintf("%016x", warm),
		"body_checksum": fmt.Sprintf("%016x", s.sum),
	}
}

func (s *serveHit) close() { s.srv.Close() }

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
