package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The cancellation battery. The contract under test: a cancelled or
// timed-out run never populates the cache or counts as completed, the
// worker it occupied is freed within one abort-check interval, joiners
// of a cancelled leader re-arm and recompute rather than erroring, and
// the recomputed bytes are identical to an uninterrupted run's.

// httpDo issues one request and returns (status, body, header).
func httpDo(t *testing.T, method, url, body string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// submitJob POSTs an async job and returns its id.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	status, b, _ := httpDo(t, "POST", base+"/api/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, b)
	}
	var st struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("submit body %q: %v", b, err)
	}
	return st.Job
}

// jobStateOf fetches a job's current state string.
func jobStateOf(t *testing.T, base, id string) string {
	t.Helper()
	status, b, _ := httpDo(t, "GET", base+"/api/v1/jobs/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("job status: %d %s", status, b)
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	return st.State
}

// waitUntil polls cond every 2ms until it holds or the bound expires.
func waitUntil(t *testing.T, bound time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(bound)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", bound, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// abortBound is the generous ceiling on cancel-to-worker-freed latency.
// The real figure is one abort-check interval — a sweep point or a 4096
// event batch, i.e. milliseconds — but CI boxes deserve slack. The bound
// is asserted even in -short mode.
const abortBound = 5 * time.Second

// longDES is a DES request slow enough (~6s quick) that cancelling it
// mid-run is race-free, but whose abort costs only one check interval.
const longDES = `{"experiment":"killsweep","quick":true}`

// TestCancelRunningJobNeverCachedAndFreesWorker cancels a job mid-DES
// and requires: the job reports cancelled, nothing lands in the cache or
// the completed-entry count, the abort is observed within abortBound,
// and the (single) DES worker is free to run the next request promptly
// rather than grinding out the cancelled simulation.
func TestCancelRunningJobNeverCachedAndFreesWorker(t *testing.T) {
	srv, err := New(Config{Sched: SchedConfig{DESWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	digest := mustNormalize(t, longDES).Digest()
	id := submitJob(t, ts.URL, longDES)
	waitUntil(t, 10*time.Second, "job to start running", func() bool {
		return jobStateOf(t, ts.URL, id) == string(StateRunning)
	})

	cancelled := time.Now()
	status, b, _ := httpDo(t, "DELETE", ts.URL+"/api/v1/jobs/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("cancel: %d %s", status, b)
	}
	if st := jobStateOf(t, ts.URL, id); st != string(StateCancelled) {
		t.Fatalf("job state after DELETE = %q, want cancelled", st)
	}

	// The worker observes the cancelled context at the next abort check
	// and withdraws the entry; that Abort is the worker-freed signal.
	waitUntil(t, abortBound, "the worker to abort the run", func() bool {
		return srv.cache.Stats().Aborts >= 1
	})
	t.Logf("cancel-to-abort latency: %s", time.Since(cancelled).Round(time.Millisecond))

	if _, ok := srv.cache.Peek(digest); ok {
		t.Fatal("cancelled run's result is servable from the cache")
	}
	if st := srv.cache.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled run counted as a completed entry: %+v", st)
	}

	// Worker freed: a cheap run on the same single-worker queue must
	// complete far sooner than the cancelled simulation would have.
	quick := time.Now()
	status, b, _ = httpDo(t, "POST", ts.URL+"/api/v1/run", `{"experiment":"fig6","quick":true}`)
	if status != http.StatusOK {
		t.Fatalf("post-cancel run: %d %s", status, b)
	}
	if el := time.Since(quick); el > abortBound {
		t.Fatalf("worker not freed: follow-up run took %s", el)
	}
}

// TestTimeoutNeverCached submits a long run with a tiny timeout_ms and
// requires a 504, a job that settles in the timeout state, and a cache
// with no trace of the truncated computation.
func TestTimeoutNeverCached(t *testing.T) {
	srv, err := New(Config{Sched: SchedConfig{DESWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"experiment":"killsweep","quick":true,"timeout_ms":150}`
	digest := mustNormalize(t, body).Digest()

	status, b, _ := httpDo(t, "POST", ts.URL+"/api/v1/run", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", status, b)
	}
	if !strings.Contains(string(b), "deadline-exceeded") {
		t.Fatalf("504 body lacks deadline-exceeded code: %s", b)
	}

	waitUntil(t, abortBound, "the timed-out run to abort", func() bool {
		return srv.cache.Stats().Aborts >= 1
	})
	if _, ok := srv.cache.Peek(digest); ok {
		t.Fatal("timed-out run's result is servable from the cache")
	}
	if st := srv.cache.Stats(); st.Entries != 0 {
		t.Fatalf("timed-out run counted as a completed entry: %+v", st)
	}

	// The async path records the distinct timeout state.
	id := submitJob(t, ts.URL, body)
	waitUntil(t, abortBound, "async job to settle in timeout", func() bool {
		return jobStateOf(t, ts.URL, id) == string(StateTimeout)
	})
	if st := srv.cache.Stats(); st.Entries != 0 {
		t.Fatalf("async timed-out run counted as completed: %+v", st)
	}
}

// TestJoinerOfCancelledLeaderReruns pins the single-flight re-arm: a
// synchronous request that joined an in-flight entry whose leader is
// cancelled must become the new owner, recompute, and answer bytes
// identical to an uninterrupted run — never an error.
func TestJoinerOfCancelledLeaderReruns(t *testing.T) {
	srv, err := New(Config{Sched: SchedConfig{DESWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only DES worker so the leader stays queued and can be
	// cancelled before it starts.
	blocker := submitJob(t, ts.URL, longDES)
	waitUntil(t, 10*time.Second, "blocker to start running", func() bool {
		return jobStateOf(t, ts.URL, blocker) == string(StateRunning)
	})

	const cheap = `{"experiment":"fig5","quick":true}`
	req := mustNormalize(t, cheap)
	want := runExperiment(req, req.Session(1, nil)).Response

	leader := submitJob(t, ts.URL, cheap)
	if st := jobStateOf(t, ts.URL, leader); st != string(StateQueued) {
		t.Fatalf("leader state = %q, want queued behind the blocker", st)
	}

	type runReply struct {
		status int
		body   []byte
		cache  string
	}
	joined := make(chan runReply, 1)
	go func() {
		status, b, hdr := httpDo(t, "POST", ts.URL+"/api/v1/run", cheap)
		joined <- runReply{status, b, hdr.Get(CacheHeader)}
	}()
	waitUntil(t, abortBound, "the synchronous request to join the leader", func() bool {
		return srv.cache.Stats().Joins >= 1
	})

	// Cancel the queued leader: its entry aborts, the joiner re-arms as
	// the new owner and resubmits. Then cancel the blocker to free the
	// worker for the joiner's recompute.
	if status, b, _ := httpDo(t, "DELETE", ts.URL+"/api/v1/jobs/"+leader, ""); status != http.StatusOK {
		t.Fatalf("cancel leader: %d %s", status, b)
	}
	if st := jobStateOf(t, ts.URL, leader); st != string(StateCancelled) {
		t.Fatalf("leader state after DELETE = %q, want cancelled", st)
	}
	if status, b, _ := httpDo(t, "DELETE", ts.URL+"/api/v1/jobs/"+blocker, ""); status != http.StatusOK {
		t.Fatalf("cancel blocker: %d %s", status, b)
	}

	var got runReply
	select {
	case got = <-joined:
	case <-time.After(2 * abortBound):
		t.Fatal("joiner never completed after its leader was cancelled")
	}
	if got.status != http.StatusOK {
		t.Fatalf("joiner got %d %s, want a recomputed 200", got.status, got.body)
	}
	if string(got.body) != string(want) {
		t.Fatalf("joiner's recomputed bytes differ from an uninterrupted run\n got: %s\nwant: %s", got.body, want)
	}
	// The recompute landed in the cache; a follow-up hit serves the same
	// bytes.
	status, b, hdr := httpDo(t, "POST", ts.URL+"/api/v1/run", cheap)
	if status != http.StatusOK || hdr.Get(CacheHeader) != string(Hit) {
		t.Fatalf("follow-up: %d cache=%s %s", status, hdr.Get(CacheHeader), b)
	}
	if string(b) != string(want) {
		t.Fatal("follow-up hit served different bytes than the recompute")
	}
}

// TestCancelMidRunThenRecomputeByteIdentical cancels a moderately long
// run mid-flight, then requires the identical request to recompute from
// scratch into exactly the bytes an uninterrupted run produces — the
// end-to-end form of the simulator's clean-prefix abort guarantee.
func TestCancelMidRunThenRecomputeByteIdentical(t *testing.T) {
	srv, err := New(Config{Sched: SchedConfig{DESWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const body = `{"experiment":"table2","quick":true}`
	req := mustNormalize(t, body)
	digest := req.Digest()
	want := runExperiment(req, req.Session(1, nil)).Response

	// table2 runs ~hundreds of ms: long enough to catch mid-run, cheap
	// enough to recompute. If a pathologically slow poll ever loses the
	// race and the run completes first, evict and try again.
	aborted := false
	for attempt := 0; attempt < 5 && !aborted; attempt++ {
		id := submitJob(t, ts.URL, body)
		waitUntil(t, 10*time.Second, "job to leave the queue", func() bool {
			return jobStateOf(t, ts.URL, id) != string(StateQueued)
		})
		httpDo(t, "DELETE", ts.URL+"/api/v1/jobs/"+id, "")
		waitUntil(t, abortBound, "job to settle", func() bool {
			st := jobStateOf(t, ts.URL, id)
			return st == string(StateCancelled) || st == string(StateDone)
		})
		if jobStateOf(t, ts.URL, id) == string(StateCancelled) {
			waitUntil(t, abortBound, "the cancelled run to abort its entry", func() bool {
				_, ok := srv.cache.Peek(digest)
				return !ok && srv.cache.Stats().Aborts >= 1
			})
			aborted = true
		} else {
			srv.cache.Evict(digest) // completed before the cancel landed; retry
		}
	}
	if !aborted {
		t.Skip("could not cancel mid-run in 5 attempts (machine too slow/fast)")
	}

	status, b, hdr := httpDo(t, "POST", ts.URL+"/api/v1/run", body)
	if status != http.StatusOK || hdr.Get(CacheHeader) != string(Miss) {
		t.Fatalf("recompute: %d cache=%s %s", status, hdr.Get(CacheHeader), b)
	}
	if string(b) != string(want) {
		t.Fatalf("recompute after mid-run cancel drifted\n got: %s\nwant: %s", b, want)
	}
}
