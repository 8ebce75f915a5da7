package serve

import (
	"encoding/json"
	"testing"

	"anton/internal/harness"
)

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
		code string
	}{
		{"unknown experiment", `{"experiment":"fig99"}`, "unknown-experiment"},
		{"bad fidelity", `{"experiment":"fig5","fidelity":"cartoon"}`, "bad-fidelity"},
		{"analytic-only refusal", `{"experiment":"fig11","fidelity":"analytic"}`, "analytic-refused"},
		{"analytic with faults", `{"experiment":"fastpath","fidelity":"analytic","faults":"seed=1,corrupt=1e-4"}`, "analytic-refused"},
		{"bad plan", `{"experiment":"fig5","faults":"corrupt=lots"}`, "bad-plan"},
		{"plan outside topology", `{"experiment":"fig5","faults":"killnode=9999@1us"}`, "bad-plan"},
		{"unknown field", `{"experiment":"fig5","fidelty":"des"}`, "bad-json"},
		{"metrics field", `{"experiment":"fig5","metrics":true}`, "bad-json"},
		{"trailing data", `{"experiment":"fig5"}{"experiment":"fig6"}`, "bad-json"},
		{"not json", `hello`, "bad-json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseRequest([]byte(c.body))
			if err == nil {
				t.Fatalf("ParseRequest(%s) succeeded, want code %q", c.body, c.code)
			}
			be, ok := err.(*BadRequestError)
			if !ok {
				t.Fatalf("ParseRequest(%s) returned %T (%v), want *BadRequestError", c.body, err, err)
			}
			if be.Code != c.code {
				t.Fatalf("ParseRequest(%s) code %q, want %q", c.body, be.Code, c.code)
			}
		})
	}
}

// TestDigestExcludesWorkersAndMetrics: spellings that differ only in
// the workers budget share a digest. There is no metrics field to
// exclude: a body carrying one is refused (TestNormalizeErrors).
func TestDigestExcludesWorkersAndMetrics(t *testing.T) {
	base := mustNormalize(t, `{"experiment":"fig5","quick":true}`)
	for _, body := range []string{
		`{"experiment":"fig5","quick":true,"workers":8}`,
		`{"experiment":"fig5","quick":true,"fidelity":"des"}`, // explicit default
	} {
		if d := mustNormalize(t, body).Digest(); d != base.Digest() {
			t.Errorf("digest(%s) = %s, want the workers-independent %s", body, d, base.Digest())
		}
	}
	for _, body := range []string{
		`{"experiment":"fig5"}`,
		`{"experiment":"fig6","quick":true}`,
		`{"experiment":"fig5","quick":true,"faults":"seed=1,corrupt=1e-4"}`,
	} {
		if d := mustNormalize(t, body).Digest(); d == base.Digest() {
			t.Errorf("digest(%s) collides with the base request; these responses differ", body)
		}
	}
}

// TestDigestFaultPlanCanonical: equivalent fault-plan spellings share a
// digest because the plan is round-tripped through Plan.String().
func TestDigestFaultPlanCanonical(t *testing.T) {
	a := mustNormalize(t, `{"experiment":"fig6","faults":"seed=7,corrupt=1e-4,retry=250ns"}`)
	b := mustNormalize(t, `{"experiment":"fig6","faults":" retry=250ns , seed=7, corrupt=0.0001 "}`)
	if a.Digest() != b.Digest() {
		t.Fatalf("equivalent plan spellings digest differently:\n %s (%q)\n %s (%q)",
			a.Digest(), a.Faults, b.Digest(), b.Faults)
	}
}

// TestDigestDistinctAcrossRegistry: every experiment at every fidelity
// it supports, quick and full, gets its own digest — the seeded-corpus
// collision check.
func TestDigestDistinctAcrossRegistry(t *testing.T) {
	seen := map[string]string{}
	add := func(r Request) {
		n, err := Normalize(r)
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", r, err)
		}
		d := n.Digest()
		key := n.Experiment.ID + "/" + n.Fidelity + "/" + n.Faults + "/" + map[bool]string{true: "quick", false: "full"}[n.Quick]
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision: %s and %s both digest to %s", prev, key, d)
		}
		seen[d] = key
	}
	for _, e := range harness.Experiments() {
		add(Request{Experiment: e.ID})
		add(Request{Experiment: e.ID, Quick: true})
		add(Request{Experiment: e.ID, Faults: "seed=3,corrupt=1e-4"})
		if e.Analytic {
			add(Request{Experiment: e.ID, Fidelity: harness.FidelityAnalytic})
			add(Request{Experiment: e.ID, Fidelity: harness.FidelityAnalytic, Quick: true})
		}
	}
	if len(seen) < 2*len(harness.Experiments()) {
		t.Fatalf("corpus spans only %d digests", len(seen))
	}
}

func mustNormalize(t *testing.T, body string) *NormRequest {
	t.Helper()
	n, err := ParseRequest([]byte(body))
	if err != nil {
		t.Fatalf("ParseRequest(%s): %v", body, err)
	}
	return n
}

// FuzzRequestDigest: for any accepted request body, the digest must be
// invariant under JSON re-encoding — key reorder (Go re-marshals maps
// in sorted key order), whitespace (indentation), and changes to the
// workers/timeout_ms fields — and two bodies that normalize differently
// must digest differently.
func FuzzRequestDigest(f *testing.F) {
	f.Add(`{"experiment":"fig5"}`)
	f.Add(`{"experiment":"fig5","quick":true,"workers":4}`)
	f.Add(`{"quick":true,"experiment":"fig6","fidelity":"des"}`)
	f.Add(`{"experiment":"fastpath","fidelity":"analytic","quick":true}`)
	f.Add(`{"experiment":"fig6","faults":"seed=7,corrupt=1e-4,retry=250ns"}`)
	f.Add(`{"experiment":"table3","faults":" corrupt=0.0001 ,seed=7"}`)
	f.Add(`{"experiment":"metrics"}`)
	f.Add(`{"experiment":"killsweep","faults":"seed=9,killlink=0:X+@2us,wdog=15us"}`)
	f.Add(`{"experiment":"fig12","quick":true,"workers":8}`)
	f.Add(`  {  "experiment" : "table1" , "quick" : false }  `)
	f.Add(`{"experiment":"fig5","quick":true,"timeout_ms":2500}`)
	f.Fuzz(func(t *testing.T, body string) {
		n, err := ParseRequest([]byte(body))
		if err != nil {
			return // rejected bodies have no digest to pin
		}
		d := n.Digest()

		// Round-trip through a map: sorted keys, different field order.
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("accepted body %q does not unmarshal generically: %v", body, err)
		}
		reordered, err := json.MarshalIndent(m, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		n2, err := ParseRequest(reordered)
		if err != nil {
			t.Fatalf("re-encoded body rejected: %v\noriginal: %q\nreencoded: %s", err, body, reordered)
		}
		if n2.Digest() != d {
			t.Fatalf("digest changed under JSON re-encoding:\noriginal %q -> %s\nreencoded %s -> %s",
				body, d, reordered, n2.Digest())
		}

		// Workers and timeout_ms must never move the digest: the same
		// experiment under a different execution budget is the same
		// result, or the cache (and the chaos battery's byte-identity
		// checks) would fracture by deadline.
		m["workers"] = float64(7)
		m["timeout_ms"] = float64(12345)
		mutated, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		n3, err := ParseRequest(mutated)
		if err != nil {
			t.Fatalf("workers/timeout mutation rejected: %v (%s)", err, mutated)
		}
		if n3.Digest() != d {
			t.Fatalf("digest depends on workers/timeout_ms: %s -> %s", mutated, n3.Digest())
		}

		// Flipping quick must move it (quick changes sampling density,
		// hence response bytes).
		m["quick"] = !n.Quick
		delete(m, "workers")
		flipped, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if n4, err := ParseRequest(flipped); err == nil && n4.Digest() == d {
			t.Fatalf("digest ignores quick: %s and %q share %s", flipped, body, d)
		}
	})
}
