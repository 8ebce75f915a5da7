// Package serve is the simulation-as-a-service tier: a long-running
// HTTP server that accepts JSON experiment requests and runs them as
// concurrent isolated harness sessions, with a deterministic result
// cache in front of the simulator.
//
// The cache key is a canonical digest of the *normalized* request.
// Every simulation result is bit-deterministic — byte-identical at any
// worker count — so the digest deliberately excludes the workers and
// timeout_ms fields: they change how fast an answer is produced, or
// whether it is produced in time, never which bytes it contains. What
// remains (experiment id, fidelity tier, canonical fault-plan string,
// quick flag) is exactly the set of inputs that can change a report
// byte, which is what makes cached responses byte-identical to fresh
// runs and results infinitely cacheable.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"anton/internal/fault"
	"anton/internal/harness"
)

// Request is the JSON experiment request body. Unknown fields are
// rejected so a typo ("fidelty") cannot silently select the defaults.
type Request struct {
	// Experiment is the registry id (fig5, table3, fastpath, ...).
	Experiment string `json:"experiment"`
	// Fidelity is the simulation tier: "des" (default when empty) or
	// "analytic" for the closed-form fast path.
	Fidelity string `json:"fidelity,omitempty"`
	// Faults is a fault plan in the -faults flag syntax; empty means the
	// fault-free models.
	Faults string `json:"faults,omitempty"`
	// Quick reduces sampling density of the expensive experiments.
	Quick bool `json:"quick,omitempty"`
	// Workers is the sweep goroutine budget for this run (0 = the
	// server default). It never changes a response byte and is excluded
	// from the cache digest.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs bounds this request's end-to-end time in milliseconds
	// (0 = the server's default deadline, if configured). A request that
	// misses its deadline answers 504 and its computation aborts
	// cooperatively; timed-out runs never populate the cache. Like
	// workers it cannot change a response byte, so it is excluded from
	// the cache digest.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// BadRequestError describes a request rejected during normalization;
// the server answers it with HTTP 400.
type BadRequestError struct {
	Code string // machine-readable: unknown-experiment, bad-fidelity, bad-plan, bad-timeout, analytic-refused
	Msg  string
}

func (e *BadRequestError) Error() string { return e.Msg }

// NormRequest is a validated request in canonical form.
type NormRequest struct {
	Experiment harness.Experiment
	Fidelity   string // canonical tier name, never empty
	Faults     string // canonical plan string (Plan.String()), "" if fault-free
	Plan       *fault.Plan
	Quick      bool
	Workers    int
	// Timeout is the request's deadline budget (0: use the server
	// default; never negative after Normalize).
	Timeout time.Duration
}

// Normalize validates the request against the experiment registry and
// rewrites it into canonical form: the fidelity resolved to its tier
// name, the fault plan parsed and re-rendered through the exact
// round-tripping Plan.String() so equivalent spellings share a digest,
// and the refusals (unknown tier, event-driven-only experiment, fault
// plan at analytic fidelity, a plan naming links or nodes beyond 512)
// turned into typed errors. The last three come from the harness's
// Experiment.Check and ParsePlan, which antonbench applies too.
func Normalize(r Request) (*NormRequest, error) {
	e, ok := harness.Lookup(r.Experiment)
	if !ok {
		return nil, &BadRequestError{Code: "unknown-experiment",
			Msg: fmt.Sprintf("unknown experiment %q (GET /api/v1/experiments lists them)", r.Experiment)}
	}
	fid := r.Fidelity
	if fid == "" {
		fid = harness.FidelityDES
	}
	f, err := harness.ParseFidelity(fid)
	if err != nil {
		return nil, &BadRequestError{Code: "bad-fidelity", Msg: err.Error()}
	}
	if r.TimeoutMs < 0 {
		return nil, &BadRequestError{Code: "bad-timeout",
			Msg: fmt.Sprintf("timeout_ms must be >= 0, got %d", r.TimeoutMs)}
	}
	n := &NormRequest{Experiment: e, Fidelity: f, Quick: r.Quick, Workers: r.Workers,
		Timeout: time.Duration(r.TimeoutMs) * time.Millisecond}
	if err := e.Check(f, r.Faults != ""); err != nil {
		return nil, &BadRequestError{Code: "analytic-refused", Msg: err.Error()}
	}
	if r.Faults != "" {
		plan, err := harness.ParsePlan(r.Faults)
		if err != nil {
			return nil, &BadRequestError{Code: "bad-plan", Msg: fmt.Sprintf("faults: %v", err)}
		}
		n.Plan = plan
		n.Faults = plan.String()
	}
	return n, nil
}

// ParseRequest decodes a JSON request body strictly (unknown fields are
// errors) and normalizes it.
func ParseRequest(body []byte) (*NormRequest, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, &BadRequestError{Code: "bad-json", Msg: fmt.Sprintf("request body: %v", err)}
	}
	// A trailing second JSON value is as malformed as a bad field.
	if dec.More() {
		return nil, &BadRequestError{Code: "bad-json", Msg: "request body: trailing data after JSON object"}
	}
	return Normalize(r)
}

// Digest returns the canonical cache key: a SHA-256 over the digest
// schema tag and the result-determining fields, NUL-separated. Workers
// and the timeout are excluded by design — see the package comment. Two
// requests share a digest if and only if their responses are
// byte-identical.
func (n *NormRequest) Digest() string {
	h := sha256.New()
	for _, part := range []string{"anton-serve/v1", n.Experiment.ID, n.Fidelity, n.Faults, fmt.Sprintf("%t", n.Quick)} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TimeKey groups requests whose run times are comparable for the
// deadline-aware admission estimator: same experiment, fidelity, and
// sampling density. Fault plans are deliberately folded together — they
// perturb wall time far less than the experiment choice does, and an
// estimator keyed per plan would almost never have an observation.
func (n *NormRequest) TimeKey() string {
	density := "full"
	if n.Quick {
		density = "quick"
	}
	return n.Experiment.ID + "/" + n.Fidelity + "/" + density
}

// Session builds the isolated harness session this request runs in.
// The progress hook is the caller's (the job layer streams it).
func (n *NormRequest) Session(defaultWorkers int, progress func(int)) *harness.Session {
	w := n.Workers
	if w == 0 {
		w = defaultWorkers
	}
	return &harness.Session{
		Workers:  w,
		Fidelity: n.Fidelity,
		Faults:   n.Plan,
		Progress: progress,
	}
}
