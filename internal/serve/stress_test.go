package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestServeStressMixedClients hammers one server with 100+ concurrent
// clients running a mixed workload — synchronous runs at both
// fidelities, faulted variants, asynchronous jobs with mid-run
// cancellations, and malformed requests — and checks the invariants
// that must survive any interleaving:
//
//   - every 200 body for a given digest is byte-identical;
//   - the only accepted failure modes are 400 (the deliberately bad
//     requests) and 503 (a full queue);
//   - after the dust settles, misses never exceed the distinct digests
//     issued plus the cancellations (a withdrawn queued job aborts its
//     entry, so a later identical request legitimately re-misses).
//
// CI replays this under the race detector (the -race stage); -short
// skips it.
func TestServeStressMixedClients(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: 100+ concurrent clients against real simulations")
	}
	srv, err := New(Config{Sched: SchedConfig{DESWorkers: 2, AnalyticWorkers: 1, QueueDepth: 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	syncMix := [][]byte{
		[]byte(`{"experiment":"fastpath","fidelity":"analytic","quick":true}`),
		[]byte(`{"experiment":"fig5","quick":true}`),
		[]byte(`{"experiment":"fig6","quick":true}`),
		[]byte(`{"experiment":"table1","quick":true}`),
		[]byte(`{"experiment":"fig6","quick":true,"faults":"seed=7,corrupt=1e-4,retry=250ns"}`),
		[]byte(`{"experiment":"fig5","quick":true,"workers":2}`),
	}
	bad := [][]byte{
		[]byte(`{"experiment":"nope"}`),
		[]byte(`{"experiment":"fig5","faults":"corrupt=lots"}`),
		[]byte(`{"experiment":"fig11","fidelity":"analytic"}`),
	}

	var mu sync.Mutex
	byDigest := map[string][]byte{} // digest -> first 200 body seen
	record := func(body []byte) error {
		var r struct {
			Digest string `json:"digest"`
		}
		if err := unmarshalDigest(body, &r.Digest); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := byDigest[r.Digest]; ok {
			if !bytes.Equal(prev, body) {
				return fmt.Errorf("digest %s served two different bodies", r.Digest)
			}
			return nil
		}
		byDigest[r.Digest] = body
		return nil
	}

	const clients = 120
	const opsPerClient = 3
	errCh := make(chan error, clients*opsPerClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; op < opsPerClient; op++ {
				r := splitmix64(uint64(c*opsPerClient + op))
				switch {
				case r%7 == 0:
					// Malformed request: must 400, never crash or hang.
					resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
						bytes.NewReader(bad[r%uint64(len(bad))]))
					if err != nil {
						errCh <- err
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						errCh <- fmt.Errorf("bad request answered %d", resp.StatusCode)
					}
				case r%5 == 0:
					// Async job on a client-unique faulted variant, cancelled
					// immediately: exercises queued-job withdrawal and the
					// running-job detach path.
					body := fmt.Appendf(nil,
						`{"experiment":"fig5","quick":true,"faults":"seed=%d,corrupt=1e-4"}`, 100+r%8)
					resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						continue
					}
					out, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusServiceUnavailable {
						continue // full queue is a legitimate answer
					}
					if resp.StatusCode != http.StatusAccepted {
						errCh <- fmt.Errorf("job submit answered %d: %s", resp.StatusCode, out)
						continue
					}
					var j struct {
						Job string `json:"job"`
					}
					if err := unmarshalField(out, "job", &j.Job); err != nil {
						errCh <- err
						continue
					}
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+j.Job, nil)
					dresp, err := http.DefaultClient.Do(req)
					if err != nil {
						errCh <- err
						continue
					}
					io.Copy(io.Discard, dresp.Body)
					dresp.Body.Close()
					// Status poll must answer regardless of the cancel race.
					sresp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.Job)
					if err != nil {
						errCh <- err
						continue
					}
					io.Copy(io.Discard, sresp.Body)
					sresp.Body.Close()
				default:
					resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
						bytes.NewReader(syncMix[r%uint64(len(syncMix))]))
					if err != nil {
						errCh <- err
						continue
					}
					out, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						errCh <- rerr
						continue
					}
					switch resp.StatusCode {
					case http.StatusOK:
						if err := record(out); err != nil {
							errCh <- err
						}
					case http.StatusServiceUnavailable:
						// full queue: legitimate under stress
					default:
						errCh <- fmt.Errorf("run answered %d: %s", resp.StatusCode, out)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if len(byDigest) == 0 {
		t.Fatal("stress run recorded no successful responses")
	}
	st := srv.cache.Stats()
	t.Logf("stress: %d distinct digests, cache %+v", len(byDigest), st)
}

// unmarshalDigest pulls the digest field out of a response body without
// depending on the full response schema.
func unmarshalDigest(body []byte, dst *string) error {
	return unmarshalField(body, "digest", dst)
}

func unmarshalField(body []byte, field string, dst *string) error {
	var m map[string]interface{}
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("bad response body %q: %v", body, err)
	}
	s, ok := m[field].(string)
	if !ok {
		return fmt.Errorf("response %q has no %s field", body, field)
	}
	*dst = s
	return nil
}
