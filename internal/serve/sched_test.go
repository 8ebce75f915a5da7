package serve

import (
	"testing"
	"time"
)

// TestQueueSettledBeforeRelease: a finished job leaves its queue's
// depth before its waiters are released. The completion hook runs after
// the result is ready and before any waiter sees it, so the depths it
// reads are what a requester reading /stats right after its answer
// would see.
func TestQueueSettledBeforeRelease(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	des, analytic := -1, -1
	srv.cache.onComplete = func() { des, analytic = srv.sched.QueueDepths() }
	for _, body := range []string{
		`{"experiment":"fastpath","fidelity":"analytic","quick":true}`,
		`{"experiment":"fig6","quick":true}`,
	} {
		req := mustNormalize(t, body)
		entry, _ := srv.cache.Get(req.Digest())
		if err := srv.sched.Submit(srv.newJob(req, req.Digest(), entry, time.Time{})); err != nil {
			t.Fatal(err)
		}
		<-entry.Done()
		if des != 0 || analytic != 0 {
			t.Fatalf("%s: queue depths (des %d, analytic %d) at completion, want 0 and 0", body, des, analytic)
		}
	}
}
