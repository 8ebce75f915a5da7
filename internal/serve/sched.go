package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anton/internal/harness"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateCancelled JobState = "cancelled"
	// StateTimeout marks a job whose deadline expired before it finished;
	// its compute aborted cooperatively and nothing was cached.
	StateTimeout JobState = "timeout"
	// StateFailed marks a job whose experiment failed terminally (a
	// panic) with a live context; nothing was cached and waiters answer
	// an error rather than re-arming.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateCancelled, StateTimeout, StateFailed:
		return true
	}
	return false
}

// Job is one scheduled experiment run. Jobs are created by the server
// for both synchronous (/run) and asynchronous (/jobs) requests; the
// asynchronous path exposes them by id for status, progress streaming,
// and cancellation.
type Job struct {
	ID     string
	Digest string
	Req    *NormRequest

	state     atomic.Value // JobState
	completed atomic.Int64 // sweep units finished (the session progress hook)
	cancelled atomic.Bool
	entry     *Entry
	cache     *Cache
	sched     *Scheduler

	// ctx carries the job's deadline (derived from the server's base
	// context, so drain cancels every job at once); cancel releases it
	// and is what DELETE /jobs/{id} fires. The harness session polls
	// ctx.Done at sweep points and simulator event-batch boundaries.
	ctx    context.Context
	cancel context.CancelFunc
	// chargedNs is the run-time estimate this job added to its queue's
	// backlog at submit; refunded when the job leaves the queue.
	chargedNs int64
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState { return j.state.Load().(JobState) }

// Completed returns the number of finished sweep units.
func (j *Job) Completed() int { return int(j.completed.Load()) }

// Done exposes the underlying cache entry's completion channel: closed
// when the result is available (or the entry aborted on cancellation).
func (j *Job) Done() <-chan struct{} { return j.entry.Done() }

// Result returns the cached payload once Done is closed.
func (j *Job) Result() (Result, bool) { return j.entry.Result() }

// ctxErr returns the job context's error (nil without a context).
func (j *Job) ctxErr() error {
	if j.ctx == nil {
		return nil
	}
	return j.ctx.Err()
}

// release frees the job's context resources (deadline timer).
func (j *Job) release() {
	if j.cancel != nil {
		j.cancel()
	}
}

// Cancel requests cooperative cancellation. A queued job is withdrawn
// before it starts: its in-flight cache entry aborts so joiners re-arm
// and a later identical request recomputes. A running job's context is
// cancelled; the session's abort hook observes that within one
// abort-check interval (a sweep point or an event batch), the worker
// abandons the run and frees its slot, and the entry aborts — the
// interrupted computation's bytes can never be cached or served.
// Returns false if the job had already finished.
func (j *Job) Cancel() bool {
	if j.State().Terminal() {
		return false
	}
	if !j.cancelled.CompareAndSwap(false, true) {
		return false
	}
	if j.cancel != nil {
		j.cancel()
	}
	// Withdraw-before-start races with the worker claiming the job; the
	// claim CAS in runOne decides who wins.
	if j.state.CompareAndSwap(StateQueued, StateCancelled) {
		j.cache.Abort(j.entry)
		return true
	}
	// Running: the context cancellation above stops the compute; the
	// worker observes it post-run and aborts the entry. A cancel landing
	// after the worker already committed the result leaves a completed
	// cache entry behind — that run genuinely finished, and deterministic
	// results are valid whoever asked — while the job still reports
	// cancelled to its owner.
	j.state.CompareAndSwap(StateRunning, StateCancelled)
	return true
}

// SchedConfig sizes the batch scheduler.
type SchedConfig struct {
	// DESWorkers / AnalyticWorkers are the per-queue worker-pool sizes
	// (minimum 1 each). Analytic requests have their own pool so a
	// microsecond-scale closed-form query never waits behind a
	// multi-second DES job.
	DESWorkers      int
	AnalyticWorkers int
	// QueueDepth bounds each queue; a submit to a full queue fails (the
	// server answers 503) instead of buffering unboundedly.
	QueueDepth int
	// SessionWorkers is the default per-run sweep goroutine budget when
	// the request does not set one. Values above 1 run sweep units
	// on pool goroutines where a panic is unrecoverable; at the default
	// of 1 the scheduler's recover turns a panicking experiment into a
	// failed job instead of a dead server.
	SessionWorkers int
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.DESWorkers < 1 {
		c.DESWorkers = 1
	}
	if c.AnalyticWorkers < 1 {
		c.AnalyticWorkers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.SessionWorkers == 0 {
		c.SessionWorkers = 1
	}
	return c
}

// ErrQueueFull is returned by Submit when the target fidelity queue is
// at capacity (or the scheduler has begun draining).
var ErrQueueFull = fmt.Errorf("serve: queue full")

// Scheduler runs jobs on bounded per-fidelity worker pools.
type Scheduler struct {
	cfg      SchedConfig
	des      chan *Job
	analytic chan *Job
	quit     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool

	// queued tracks per-queue depth for the stats endpoint (channel len
	// alone misses jobs claimed but not yet finished).
	queuedDES      atomic.Int64
	queuedAnalytic atomic.Int64
	// backlog estimates each queue's outstanding work in nanoseconds —
	// the sum of run-time estimates charged at submit — feeding
	// deadline-aware admission and Retry-After hints.
	backlogDES      atomic.Int64
	backlogAnalytic atomic.Int64

	// times is the observed per-experiment run-time estimator (shared
	// with the server's admission gate).
	times *runTimes
}

// NewScheduler starts the worker pools.
func NewScheduler(cfg SchedConfig) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		des:      make(chan *Job, cfg.QueueDepth),
		analytic: make(chan *Job, cfg.QueueDepth),
		quit:     make(chan struct{}),
		times:    newRunTimes(),
	}
	for i := 0; i < cfg.DESWorkers; i++ {
		s.wg.Add(1)
		go s.work(s.des)
	}
	for i := 0; i < cfg.AnalyticWorkers; i++ {
		s.wg.Add(1)
		go s.work(s.analytic)
	}
	return s
}

// Close stops admission and drains the queues: already-queued jobs still
// run (or abort immediately when their contexts are cancelled — the
// server's drain budget does exactly that), and a job stranded by a
// racing Submit is executed inline so no waiter ever hangs on a closed
// scheduler. Submit after Close fails with ErrQueueFull instead of
// panicking, which is what lets the synchronous re-arm path race a
// drain safely.
func (s *Scheduler) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.quit)
	s.wg.Wait()
	// Sweep stragglers that won the Submit race against the closed flag
	// after the workers quit.
	drain := func(q chan *Job) {
		for {
			select {
			case j := <-q:
				s.runOne(j)
			default:
				return
			}
		}
	}
	drain(s.des)
	drain(s.analytic)
}

// QueueDepths reports the current (des, analytic) queue occupancy.
func (s *Scheduler) QueueDepths() (int, int) {
	return int(s.queuedDES.Load()), int(s.queuedAnalytic.Load())
}

// EstimatedWait reports the estimated queueing delay in front of a new
// job at the given fidelity: the charged backlog divided by the pool
// size. It is an estimate in both directions (unobserved experiments
// charge nothing), which is fine for its two consumers — admission
// shedding and Retry-After hints.
func (s *Scheduler) EstimatedWait(fidelity string) time.Duration {
	if fidelity == harness.FidelityAnalytic {
		return time.Duration(s.backlogAnalytic.Load() / int64(s.cfg.AnalyticWorkers))
	}
	return time.Duration(s.backlogDES.Load() / int64(s.cfg.DESWorkers))
}

// Estimate exposes the observed run-time estimate for a request (0:
// never observed).
func (s *Scheduler) Estimate(req *NormRequest) time.Duration {
	return s.times.estimate(req.TimeKey())
}

// Submit enqueues a job owning in-flight cache entry e. The job is
// routed by request fidelity. On a full (or draining) queue the entry
// is aborted and ErrQueueFull returned.
func (s *Scheduler) Submit(j *Job) error {
	if s.closed.Load() {
		j.state.Store(StateCancelled)
		j.cache.Abort(j.entry)
		j.release()
		return ErrQueueFull
	}
	q, depth, backlog := s.des, &s.queuedDES, &s.backlogDES
	if j.Req.Fidelity == harness.FidelityAnalytic {
		q, depth, backlog = s.analytic, &s.queuedAnalytic, &s.backlogAnalytic
	}
	j.state.Store(StateQueued)
	depth.Add(1)
	if est := s.times.estimate(j.Req.TimeKey()); est > 0 {
		j.chargedNs = int64(est)
		backlog.Add(j.chargedNs)
	}
	select {
	case q <- j:
		return nil
	default:
		depth.Add(-1)
		backlog.Add(-j.chargedNs)
		j.chargedNs = 0
		j.state.Store(StateCancelled)
		j.cache.Abort(j.entry)
		j.release()
		return ErrQueueFull
	}
}

func (s *Scheduler) work(q chan *Job) {
	defer s.wg.Done()
	for {
		select {
		case j := <-q:
			s.runOne(j)
		case <-s.quit:
			// Drain whatever is already queued, then exit. Jobs whose
			// contexts the drain budget has cancelled abort at the pre-run
			// check below.
			for {
				select {
				case j := <-q:
					s.runOne(j)
				default:
					return
				}
			}
		}
	}
}

func (s *Scheduler) runOne(j *Job) {
	defer j.release()
	depth, backlog := &s.queuedDES, &s.backlogDES
	if j.Req.Fidelity == harness.FidelityAnalytic {
		depth, backlog = &s.queuedAnalytic, &s.backlogAnalytic
	}
	// leave takes the job off its queue's depth and backlog. Every path
	// calls it before the entry's waiters are released (Complete, Fail or
	// Abort), so a requester that reads /stats after its answer never
	// sees its own job as queued.
	leave := func() {
		depth.Add(-1)
		backlog.Add(-j.chargedNs)
	}
	// Claim: a cancelled queued job lost the CAS race and was withdrawn
	// (its entry already aborted) — skip it.
	if !j.state.CompareAndSwap(StateQueued, StateRunning) {
		leave()
		return
	}
	// Queue shedding at the worker: a job whose deadline expired (or
	// whose server began draining past its budget) while it waited never
	// starts computing — the waiter is already gone.
	if j.ctxErr() != nil {
		leave()
		j.finishAborted()
		return
	}
	start := time.Now()
	res, err := s.runGuarded(j)
	leave()
	if j.ctxErr() != nil || j.cancelled.Load() {
		// Cancelled or timed out mid-run. The simulators stopped at an
		// event-batch boundary and the sweeps skipped their remaining
		// units, so res (if the experiment even returned) is a truncated
		// artifact: abort the entry so those bytes can never be served,
		// and let the next identical request recompute from scratch.
		j.finishAborted()
		return
	}
	if err != nil {
		j.cache.Fail(j.entry)
		j.state.Store(StateFailed)
		return
	}
	s.times.observe(j.Req.TimeKey(), time.Since(start))
	j.cache.Complete(j.entry, res)
	// A mid-run cancel set the state to cancelled; keep that visible to
	// the job's owner while the result still lands in the cache.
	j.state.CompareAndSwap(StateRunning, StateDone)
}

// finishAborted withdraws an interrupted job's entry and records why it
// stopped.
func (j *Job) finishAborted() {
	j.cache.Abort(j.entry)
	switch {
	case j.cancelled.Load():
		j.state.Store(StateCancelled)
	case j.ctxErr() == context.DeadlineExceeded:
		j.state.Store(StateTimeout)
	default:
		j.state.Store(StateCancelled) // server drain
	}
}

// runGuarded executes the experiment with a recover: a cancelled
// session legitimately leaves zero values in skipped sweep slots, and
// an experiment tripping over them (or any other panic) must cost one
// failed job, not the serving process. The recover only works because
// sweeps run inline at the default SessionWorkers=1; see SchedConfig.
func (s *Scheduler) runGuarded(j *Job) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked: %v", j.Req.Experiment.ID, r)
		}
	}()
	sess := j.Req.Session(s.cfg.SessionWorkers, func(done int) {
		j.completed.Store(int64(done))
	})
	sess.Ctx = j.ctx
	return runExperiment(j.Req, sess), nil
}

// runExperiment executes the experiment in sess and renders the cached
// payload. The response JSON is built exactly once, here: every
// requester with the same digest — fresh run, single-flight joiner, or
// later cache hit — receives these exact bytes, which is the
// byte-identity contract the equivalence battery pins.
func runExperiment(req *NormRequest, sess *harness.Session) Result {
	var res Result
	var report string
	if req.Experiment.HasArtifacts() {
		a := req.Experiment.ArtifactsWith(sess, req.Quick)
		report = a.Report
		res.Bench = a.BenchJSON
		res.Trace = a.Trace
	} else {
		report = req.Experiment.RunWith(sess, req.Quick)
	}
	res.Response = renderResponse(req, sess.Completed(), report, len(res.Bench) > 0 || len(res.Trace) > 0)
	return res
}
