package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzHandler drives Server.Handler with arbitrary input: every body
// ParseRequest rejects is posted to both run routes, and the fuzzed
// string is the job id, result digest and artifact kind of the routes
// that take one. Each answer must be a 4xx with the JSON error body,
// never a 5xx or a panic, and a rejected body must be refused with the
// code ParseRequest gives it (bad-body past maxBodyBytes, which the
// handler refuses unread). Bodies ParseRequest accepts are skipped:
// they would run experiments.
func FuzzHandler(f *testing.F) {
	f.Add(`{"experiment":"fig5"`)
	f.Add(`{"experiment":"fig5"}{"experiment":"fig6"}`)
	f.Add(`[]`)
	f.Add(`null`)
	f.Add(`{"experiment":"fig5","workers":1e999}`)
	f.Add(`{"experiment":"fig5","timeout_ms":99999999999999999999}`)
	f.Add(`{"experiment":"fig5","timeout_ms":-1}`)
	f.Add(`{"experiment":"fig99","quick":true}`)
	f.Add(`{"experiment":"fig5","fidelty":"des"}`)
	f.Add(`{"experiment":"fig5","fidelity":"exact"}`)
	f.Add(`{"experiment":"fig11","fidelity":"analytic"}`)
	f.Add(`{"experiment":"fastpath","fidelity":"analytic","faults":"seed=1,corrupt=1e-4"}`)
	f.Add(`{"experiment":"fig6","faults":"seed=x"}`)
	f.Add(`{"experiment":"fig6","faults":"killlink=999:X+@1us"}`)
	f.Add(`{"experiment":"fig6","faults":"corrupt=2"}`)
	f.Add(`{"experiment":"fig6","faults":"seed=1,,corrupt=1e-4"}`)
	f.Add(`{"experiment":"` + strings.Repeat("x", 2<<20) + `"}`)
	f.Add("j1")
	f.Add("../..")
	f.Add("bench")

	srv, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	// One completed result with both artifacts, so the artifact route
	// reaches its kind check.
	const seeded = "seeded"
	srv.cache.Seed(seeded, Result{Response: []byte("{}\n"), Bench: []byte("{}"), Trace: []byte("{}")})

	f.Fuzz(func(t *testing.T, in string) {
		if _, err := ParseRequest([]byte(in)); err != nil {
			var be *BadRequestError
			if !errors.As(err, &be) {
				t.Fatalf("ParseRequest(%q) returned %T, not a *BadRequestError", in, err)
			}
			want := be.Code
			if len(in) > maxBodyBytes {
				want = "bad-body"
			}
			for _, path := range []string{"/api/v1/run", "/api/v1/jobs"} {
				errCode(t, h, http.MethodPost, path, in, want)
			}
		}
		if in == "" || in == seeded {
			return // no route takes an empty segment; the seeded digest exists
		}
		seg := pathSegment(in)
		if len(seg) > http.DefaultMaxHeaderBytes {
			return // the server refuses such a request line before routing
		}
		errCode(t, h, http.MethodGet, "/api/v1/jobs/"+seg, "", "unknown-job")
		errCode(t, h, http.MethodGet, "/api/v1/jobs/"+seg+"/stream", "", "unknown-job")
		errCode(t, h, http.MethodDelete, "/api/v1/jobs/"+seg, "", "unknown-job")
		errCode(t, h, http.MethodGet, "/api/v1/results/"+seg, "", "unknown-result")
		errCode(t, h, http.MethodGet, "/api/v1/artifacts/"+seg+"/trace", "", "unknown-result")
		if in != "bench" && in != "trace" {
			errCode(t, h, http.MethodGet, "/api/v1/artifacts/"+seeded+"/"+seg, "", "unknown-artifact")
		}
	})
}

// pathSegment escapes s as one path segment, dots included, so the mux
// neither splits nor cleans it.
func pathSegment(s string) string {
	return strings.ReplaceAll(url.PathEscape(s), ".", "%2E")
}

// errCode serves one request and requires a 4xx whose body is the JSON
// error object carrying the wanted code.
func errCode(t *testing.T, h http.Handler, method, path, body, want string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("%s %s: status %d, want a 4xx\n%.200s", method, path, rec.Code, rec.Body.Bytes())
	}
	var got struct {
		Error errBody `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil || got.Error.Message == "" {
		t.Fatalf("%s %s: status %d, body is not the JSON error object (%v)\n%.200s", method, path, rec.Code, err, rec.Body.Bytes())
	}
	if got.Error.Code != want {
		t.Fatalf("%s %s: error code %q, want %q (%s)", method, path, got.Error.Code, want, got.Error.Message)
	}
}
