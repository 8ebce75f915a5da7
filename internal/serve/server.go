package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anton/internal/checkpoint"
	"anton/internal/harness"
)

// Config sizes one server instance.
type Config struct {
	// CacheEntries bounds the result cache (<= 0: unbounded).
	CacheEntries int
	// Sched sizes the batch scheduler.
	Sched SchedConfig
	// CheckpointPath, when non-empty, persists the completed result cache
	// after every finished job and restores it at startup: a restarted
	// server resumes with every previously completed experiment already
	// answered, the same at-most-one-job-lost granularity as the
	// antonbench CLI's per-experiment snapshots.
	CheckpointPath string
	// MaxJobs bounds the async job registry; the oldest finished jobs are
	// forgotten beyond it (default 1024).
	MaxJobs int
	// DefaultTimeout bounds every request that does not set timeout_ms
	// (0: requests without timeout_ms have no deadline).
	DefaultTimeout time.Duration
	// DrainBudget bounds graceful drain: in-flight and queued jobs get
	// this long to finish; past it their contexts are cancelled and the
	// cooperative abort hook stops the remaining compute within one
	// abort-check interval (default 15s).
	DrainBudget time.Duration
}

// Server lifecycle states. A server is starting until its checkpoint
// restore finishes, ready while admitting work, and draining from the
// first BeginDrain/Drain/Close until process exit. /readyz reports the
// state; admission refuses everything outside ready.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
)

// Server is the simulation-as-a-service HTTP tier.
type Server struct {
	cfg   Config
	cache *Cache
	sched *Scheduler
	mux   *http.ServeMux

	jobMu    sync.Mutex
	jobs     map[string]*Job
	jobOrder []string
	jobSeq   int

	// state is the lifecycle phase (stateStarting/Ready/Draining).
	state atomic.Int32
	// baseCtx parents every job context, so one baseCancel — fired when
	// the drain budget expires — aborts all remaining compute at once.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	drainOnce  sync.Once
	// draining suppresses the per-completion persist: drain writes the
	// checkpoint exactly once, after the last job has settled.
	draining atomic.Bool

	persistMu sync.Mutex
	// persists counts checkpoint write attempts (the persist-exactly-once
	// drain test and ops observability).
	persists atomic.Int64
}

// NewStarting builds a server in the starting state: the handler is
// live (healthz answers, readyz reports starting) but admission refuses
// work until Restore is called. This is the production boot shape — bind
// the listener first, restore a possibly large checkpoint in the
// background, and let the load balancer hold traffic until /readyz
// flips — and it also closes a durability race: a job completing before
// the restore finished could persist a half-restored cache over the
// checkpoint.
func NewStarting(cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.DrainBudget <= 0 {
		cfg.DrainBudget = 15 * time.Second
	}
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheEntries),
		sched: NewScheduler(cfg.Sched),
		jobs:  map[string]*Job{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// New builds a server and restores the result cache from the checkpoint
// (if configured and present) before returning, so the returned server
// is immediately ready — the shape tests and in-process embedders want.
func New(cfg Config) (*Server, error) {
	s := NewStarting(cfg)
	if err := s.Restore(); err != nil {
		s.sched.Close()
		s.baseCancel()
		return nil, err
	}
	return s, nil
}

// Restore loads the checkpoint (when configured), arms per-completion
// persistence, and flips the server ready. Idempotent; a failure leaves
// the server in starting (not ready) with admission refusing work.
func (s *Server) Restore() error {
	if s.cfg.CheckpointPath != "" {
		if err := s.restore(); err != nil {
			return err
		}
		s.cache.onComplete = s.persistOnComplete
	}
	s.state.CompareAndSwap(stateStarting, stateReady)
	return nil
}

// stateName renders the lifecycle phase for /readyz and /stats.
func (s *Server) stateName() string {
	switch s.state.Load() {
	case stateReady:
		return "ready"
	case stateDraining:
		return "draining"
	}
	return "starting"
}

// BeginDrain flips the server out of ready without blocking: /readyz
// starts answering 503 and admission refuses new work immediately, while
// in-flight jobs keep running. Drain (or Close) completes the shutdown.
func (s *Server) BeginDrain() {
	s.state.CompareAndSwap(stateStarting, stateDraining)
	s.state.CompareAndSwap(stateReady, stateDraining)
	s.draining.Store(true)
}

// Drain gracefully shuts the serving tier down: admission stops, queued
// and in-flight jobs get the drain budget to finish — past it the base
// context is cancelled and the cooperative abort hook stops remaining
// compute within one abort-check interval, aborting (never caching)
// those runs — and the cache checkpoint is persisted exactly once.
// Safe to call from any goroutine and idempotent; concurrent callers
// block until the first drain completes.
func (s *Server) Drain() {
	s.BeginDrain()
	s.drainOnce.Do(func() {
		budget := time.AfterFunc(s.cfg.DrainBudget, s.baseCancel)
		s.sched.Close()
		budget.Stop()
		s.baseCancel()
		if s.cfg.CheckpointPath != "" {
			s.persist()
		}
	})
}

// Close drains the server; it exists as the conventional name for defer
// sites and tests.
func (s *Server) Close() { s.Drain() }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/v1/readyz", s.handleReady)
	s.mux.HandleFunc("GET /api/v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /api/v1/run", s.handleRun)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /api/v1/results/{digest}", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/artifacts/{digest}/{kind}", s.handleArtifact)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
}

// CacheHeader is the response header conveying the cache outcome
// (hit, miss, join). It lives in a header, never in the body: the body
// must be byte-identical between a fresh run and a cache hit.
const CacheHeader = "X-Anton-Cache"

// response is the JSON body of a completed run. Field order is fixed by
// this struct, so the rendered bytes are canonical.
type response struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Fidelity   string `json:"fidelity"`
	Faults     string `json:"faults,omitempty"`
	Quick      bool   `json:"quick"`
	Digest     string `json:"digest"`
	SweepUnits int    `json:"sweep_units"`
	Artifacts  bool   `json:"artifacts"`
	Report     string `json:"report"`
}

// renderResponse builds the canonical response bytes for a completed
// run. sweepUnits is the session's completed progress count — itself
// deterministic (the number of sweep jobs an experiment runs is fixed
// by id and quick, not by scheduling).
func renderResponse(req *NormRequest, sweepUnits int, report string, artifacts bool) []byte {
	b, err := json.Marshal(response{
		Experiment: req.Experiment.ID,
		Title:      req.Experiment.Title,
		Fidelity:   req.Fidelity,
		Faults:     req.Faults,
		Quick:      req.Quick,
		Digest:     req.Digest(),
		SweepUnits: sweepUnits,
		Artifacts:  artifacts,
		Report:     report,
	})
	if err != nil {
		panic(err) // string/bool/int fields cannot fail to marshal
	}
	return append(b, '\n')
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	b, _ := json.Marshal(struct {
		Error errBody `json:"error"`
	}{errBody{Code: code, Message: msg}})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeErrRetry is writeErr plus a Retry-After hint (seconds, minimum
// 1) — every shedding 503 carries one so well-behaved clients (loadgen
// included) back off by the server's estimate instead of guessing.
func writeErrRetry(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	secs := int((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErr(w, status, code, msg)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handleHealth is liveness: the process is up and the handler runs.
// It deliberately stays 200 during startup and drain — restarting a
// server because it is draining would be a self-inflicted outage.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReady is readiness: 200 only while admitting work. During
// startup restore and drain it answers 503 so load balancers route
// around this instance while liveness keeps it alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	name := s.stateName()
	if name != "ready" {
		w.Header().Set("Retry-After", "1")
		b, _ := json.Marshal(map[string]string{"status": name})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(append(b, '\n'))
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expInfo struct {
		ID        string `json:"id"`
		Title     string `json:"title"`
		Analytic  bool   `json:"analytic"`
		Artifacts bool   `json:"artifacts"`
	}
	var out []expInfo
	for _, e := range harness.Experiments() {
		out = append(out, expInfo{ID: e.ID, Title: e.Title, Analytic: e.Analytic, Artifacts: e.HasArtifacts()})
	}
	writeJSON(w, map[string]interface{}{"experiments": out})
}

// parseBody reads and normalizes the request, writing the 400 itself on
// failure.
func (s *Server) parseBody(w http.ResponseWriter, r *http.Request) *NormRequest {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-body", err.Error())
		return nil
	}
	req, err := ParseRequest(body)
	if err != nil {
		var code = "bad-request"
		if be, ok := err.(*BadRequestError); ok {
			code = be.Code
		}
		writeErr(w, http.StatusBadRequest, code, err.Error())
		return nil
	}
	return req
}

// admit gates one request at the door. Outside the ready state every
// request is refused with 503. With a deadline, the observed run times
// decide whether the deadline is even meetable: estimated queueing
// delay plus the estimated run must fit the budget, else the request is
// shed now — 503 with a Retry-After computed from the backlog — instead
// of burning queue space until its inevitable 504. Returns the absolute
// deadline (zero: none) and whether the request was admitted.
func (s *Server) admit(w http.ResponseWriter, req *NormRequest) (time.Time, bool) {
	if name := s.stateName(); name != "ready" {
		writeErrRetry(w, http.StatusServiceUnavailable, name,
			fmt.Sprintf("server is %s and not admitting work; retry shortly", name), time.Second)
		return time.Time{}, false
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout <= 0 {
		return time.Time{}, true
	}
	wait := s.sched.EstimatedWait(req.Fidelity)
	est := s.sched.Estimate(req)
	if need := wait + est; need > timeout {
		// A cache hit would still have answered instantly — this gate runs
		// only in front of real compute (see the handlers).
		writeErrRetry(w, http.StatusServiceUnavailable, "deadline-unmeetable",
			fmt.Sprintf("estimated queue wait %s plus run time %s exceeds the %s deadline; retry when the backlog clears",
				wait.Round(time.Millisecond), est.Round(time.Millisecond), timeout), need-timeout+est)
		return time.Time{}, false
	}
	return time.Now().Add(timeout), true
}

// newJob builds a job owning an in-flight cache entry, with a compute
// context derived from the server's base context (so drain aborts every
// job at once) carrying the request deadline.
func (s *Server) newJob(req *NormRequest, digest string, entry *Entry, deadline time.Time) *Job {
	j := &Job{Digest: digest, Req: req, entry: entry, cache: s.cache, sched: s.sched}
	if deadline.IsZero() {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	} else {
		j.ctx, j.cancel = context.WithDeadline(s.baseCtx, deadline)
	}
	return j
}

// retryQueueFull answers a full-queue rejection with a backlog-derived
// Retry-After.
func (s *Server) retryQueueFull(w http.ResponseWriter, req *NormRequest) {
	writeErrRetry(w, http.StatusServiceUnavailable, "queue-full",
		fmt.Sprintf("the %s queue is at capacity; retry later", req.Fidelity),
		s.sched.EstimatedWait(req.Fidelity))
}

// handleRun is the synchronous path: answer from the cache, join an
// identical in-flight run, or schedule and wait — bounded by the
// request deadline when one applies.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req := s.parseBody(w, r)
	if req == nil {
		return
	}
	digest := req.Digest()
	// A cached result short-circuits admission: serving bytes already in
	// memory is always within any deadline.
	if res, ok := s.cache.GetCompleted(digest); ok {
		w.Header().Set(CacheHeader, string(Hit))
		w.Header().Set("Content-Type", "application/json")
		w.Write(res.Response)
		return
	}
	deadline, admitted := s.admit(w, req)
	if !admitted {
		return
	}
	var timeoutCh <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeoutCh = timer.C
	}
	// A joined entry can abort under us (its owner was cancelled or timed
	// out); retry the lookup — the next round becomes the owner and
	// recomputes from scratch.
	for {
		entry, outcome := s.cache.Get(digest)
		if outcome == Miss {
			j := s.newJob(req, digest, entry, deadline)
			if err := s.sched.Submit(j); err != nil {
				s.retryQueueFull(w, req)
				return
			}
		}
		select {
		case <-entry.Done():
		case <-timeoutCh:
			// Deadline exceeded while queued, computing, or joined. The
			// compute context carries the same deadline, so a leader's run
			// is aborting on its own within one abort-check interval and
			// will never populate the cache.
			budget := req.Timeout
			if budget == 0 {
				budget = s.cfg.DefaultTimeout
			}
			writeErr(w, http.StatusGatewayTimeout, "deadline-exceeded",
				fmt.Sprintf("deadline exceeded before the result was ready (budget %s)", budget))
			return
		case <-r.Context().Done():
			// The client went away. The computation (if any) continues and
			// caches; nothing to write.
			return
		}
		res, ok := entry.Result()
		if !ok {
			if entry.Failed() {
				writeErr(w, http.StatusInternalServerError, "experiment-failed",
					"the experiment failed; nothing was cached — see the server log")
				return
			}
			continue // aborted: re-arm and recompute
		}
		w.Header().Set(CacheHeader, string(outcome))
		w.Header().Set("Content-Type", "application/json")
		w.Write(res.Response)
		return
	}
}

// jobStatus is the JSON shape of an async job.
type jobStatus struct {
	Job       string   `json:"job"`
	Digest    string   `json:"digest"`
	State     JobState `json:"state"`
	Completed int      `json:"completed"`
	Cache     string   `json:"cache,omitempty"`
}

func (s *Server) registerJob(j *Job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobSeq++
	j.ID = fmt.Sprintf("j%d", s.jobSeq)
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	for len(s.jobOrder) > s.cfg.MaxJobs {
		// Forget the oldest finished job; a still-active head stalls
		// eviction rather than losing a live handle.
		old := s.jobs[s.jobOrder[0]]
		if !old.State().Terminal() {
			break
		}
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
}

func (s *Server) job(id string) *Job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[id]
}

// handleSubmit is the asynchronous path: enqueue (or attach to the
// cache) and return a job id immediately.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req := s.parseBody(w, r)
	if req == nil {
		return
	}
	digest := req.Digest()
	deadline, admitted := s.admit(w, req)
	if !admitted {
		return
	}
	entry, outcome := s.cache.Get(digest)
	j := s.newJob(req, digest, entry, deadline)
	switch outcome {
	case Miss:
		if err := s.sched.Submit(j); err != nil {
			s.retryQueueFull(w, req)
			return
		}
	case Hit:
		j.state.Store(StateDone)
		j.release()
	case Join:
		// Ride the in-flight computation; the job is done when it is. A
		// leader that aborts (cancelled/timed out) leaves this job
		// cancelled — the owner resubmits; async joiners deliberately do
		// not re-arm on their own, since nobody is waiting on the HTTP
		// response.
		j.state.Store(StateRunning)
		go func() {
			defer j.release()
			<-entry.Done()
			switch _, ok := entry.Result(); {
			case ok:
				j.state.CompareAndSwap(StateRunning, StateDone)
			case entry.Failed():
				j.state.CompareAndSwap(StateRunning, StateFailed)
			default:
				j.state.CompareAndSwap(StateRunning, StateCancelled)
			}
		}()
	}
	s.registerJob(j)
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, jobStatus{Job: j.ID, Digest: digest, State: j.State(), Completed: j.Completed(), Cache: string(outcome)})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, jobStatus{Job: j.ID, Digest: j.Digest, State: j.State(), Completed: j.Completed()})
}

// handleJobStream streams progress as newline-delimited JSON: one line
// per observed change of (state, completed), ending with the terminal
// state. A job that is already done emits exactly one line.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var last jobStatus
	emit := func(st jobStatus) {
		b, _ := json.Marshal(st)
		w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
		last = st
	}
	for {
		st := jobStatus{Job: j.ID, Digest: j.Digest, State: j.State(), Completed: j.Completed()}
		if st != last {
			emit(st)
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Emit the terminal line on the next loop turn.
		case <-time.After(25 * time.Millisecond):
		}
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	j.Cancel()
	writeJSON(w, jobStatus{Job: j.ID, Digest: j.Digest, State: j.State(), Completed: j.Completed()})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.cache.Peek(r.PathValue("digest"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown-result", "no completed result with that digest")
		return
	}
	w.Header().Set(CacheHeader, string(Hit))
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.Response)
}

// handleArtifact serves a completed run's machine-readable artifacts:
// kind "bench" is the BENCH_metrics.json payload, kind "trace" the
// chrome://tracing export.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	res, ok := s.cache.Peek(r.PathValue("digest"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown-result", "no completed result with that digest")
		return
	}
	var body []byte
	switch r.PathValue("kind") {
	case "bench":
		body = res.Bench
	case "trace":
		body = res.Trace
	default:
		writeErr(w, http.StatusNotFound, "unknown-artifact",
			fmt.Sprintf("unknown artifact kind %q (valid: bench, trace)", r.PathValue("kind")))
		return
	}
	if len(body) == 0 {
		writeErr(w, http.StatusNotFound, "no-artifacts", "this experiment has no machine-readable artifacts")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	des, analytic := s.sched.QueueDepths()
	writeJSON(w, map[string]interface{}{
		"cache": s.cache.Stats(),
		"queues": map[string]int{
			"des":      des,
			"analytic": analytic,
		},
		"state": s.stateName(),
	})
}

// checkpointKind names this server's snapshots.
const checkpointKind = "antonserve"

// rowSep separates the fields of one persisted cache row. Every
// persisted payload is JSON text, which cannot contain a NUL byte, so
// the separator is unambiguous.
const rowSep = "\x00"

// persistOnComplete is the cache's per-completion hook. During drain it
// is suppressed: drain persists exactly once, after the last job has
// settled, so a SIGTERM under load costs one checkpoint write rather
// than one per straggling completion.
func (s *Server) persistOnComplete() {
	if s.draining.Load() {
		return
	}
	s.persist()
}

// Persists reports the number of checkpoint write attempts so far.
func (s *Server) Persists() int { return int(s.persists.Load()) }

// persist writes the completed result cache to the checkpoint path.
// Serialized under persistMu so concurrent completions cannot interleave
// writes; the snapshot itself is crash-atomic (unique tmp + fsync +
// rename — see checkpoint.WriteFile), so a SIGKILL mid-persist leaves
// either the old checkpoint or the new one, never a torn file.
func (s *Server) persist() {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.persists.Add(1)
	entries := s.cache.Snapshot()
	rows := make([]string, 0, len(entries))
	for _, e := range entries {
		res := e.ResultOf()
		rows = append(rows, strings.Join([]string{
			e.Digest, string(res.Response), string(res.Bench), string(res.Trace),
		}, rowSep))
	}
	st := &checkpoint.State{
		Kind:   checkpointKind,
		Step:   int64(len(rows)),
		Fields: map[string]string{"schema": "anton-serve/v1"},
		Rows:   rows,
	}
	if err := st.WriteFile(s.cfg.CheckpointPath); err != nil {
		// Persistence is best-effort durability, not correctness: the
		// server keeps serving from memory.
		fmt.Printf("antonserve: checkpoint: %v\n", err)
	}
}

// restore seeds the cache from the checkpoint, ignoring a missing file
// (first boot).
func (s *Server) restore() error {
	st, err := checkpoint.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		if isNotExist(err) {
			return nil
		}
		return err
	}
	if st.Kind != checkpointKind {
		return fmt.Errorf("serve: checkpoint %s was written by %q, not %s", s.cfg.CheckpointPath, st.Kind, checkpointKind)
	}
	for _, r := range st.Rows {
		parts := strings.SplitN(r, rowSep, 4)
		if len(parts) != 4 {
			return fmt.Errorf("serve: malformed checkpoint row")
		}
		res := Result{Response: []byte(parts[1])}
		if parts[2] != "" {
			res.Bench = []byte(parts[2])
		}
		if parts[3] != "" {
			res.Trace = []byte(parts[3])
		}
		s.cache.Seed(parts[0], res)
	}
	return nil
}

func isNotExist(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no such file")
}
