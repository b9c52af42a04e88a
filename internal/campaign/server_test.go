// HTTP-surface tests: the submit/poll/result happy path driven entirely
// through JSON with string enum tokens, 429 + Retry-After load shedding,
// SSE event streaming, cancellation, and the error statuses.
package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(m))
	t.Cleanup(func() { ts.Close(); m.Stop() })
	return m, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, r io.Reader) Job {
	t.Helper()
	var j Job
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		t.Fatalf("decoding job: %v", err)
	}
	return j
}

// TestServerSubmitPollResult drives the whole happy path over HTTP with
// a hand-written JSON spec using the string enum tokens, and checks the
// served result bytes equal an uninterrupted direct run's.
func TestServerSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, CheckpointEvery: 64})
	cfg := testConfig(3)
	want := runJSON(t, cfg)
	body := `{"config": {
		"Width": 4, "Height": 4,
		"Router": "roco", "Algorithm": "xy", "Traffic": "uniform",
		"InjectionRate": 0.2,
		"WarmupPackets": 50, "MeasurePackets": 400,
		"Seed": 3, "TelemetryEvery": 64
	}, "label": "happy-path"}`
	resp := postJSON(t, ts.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/jobs/") {
		t.Errorf("Location header %q", loc)
	}
	j := decodeJob(t, resp.Body)
	resp.Body.Close()
	if j.Spec.Label != "happy-path" || j.State != Queued {
		t.Fatalf("submitted job %+v", j)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeJob(t, r.Body)
		r.Body.Close()
		if cur.State.Terminal() {
			if cur.State != Succeeded {
				t.Fatalf("job %s: %v", cur.State, cur.Failure)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", r.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("served result bytes differ from a direct uninterrupted run")
	}

	for _, path := range []string{"/healthz", "/stats", "/jobs"} {
		r, err := http.Get(ts.URL + path)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %v status %d", path, err, r.StatusCode)
		}
		r.Body.Close()
	}
}

// TestServerShedsWith429: submissions past the open-job cap get 429 and
// a Retry-After hint while accepted work keeps running.
func TestServerShedsWith429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1, CheckpointEvery: 256})
	long := testConfig(21)
	long.MeasurePackets = 50000
	spec, _ := json.Marshal(Spec{Config: long})
	if resp := postJSON(t, ts.URL+"/jobs", string(spec)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/jobs", string(spec))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprint(RetryAfter) {
		t.Errorf("Retry-After %q, want %q", ra, fmt.Sprint(RetryAfter))
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body should carry the error envelope (err=%v, %+v)", err, e)
	}
}

// TestServerSSE streams a job's events end-to-end: the stream carries
// state transitions (and progress/epoch events when subscribed mid-run)
// and closes when the job terminates.
func TestServerSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, CheckpointEvery: 64})
	cfg := testConfig(22)
	cfg.MeasurePackets = 5000
	spec, _ := json.Marshal(Spec{Config: cfg})
	resp := postJSON(t, ts.URL+"/jobs", string(spec))
	j := decodeJob(t, resp.Body)
	resp.Body.Close()

	es, err := http.Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var stream strings.Builder
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		stream.WriteString(sc.Text())
		stream.WriteByte('\n')
	}
	out := stream.String()
	if !strings.Contains(out, "event: state") {
		t.Errorf("stream carried no state events:\n%s", out)
	}
	if !strings.Contains(out, `"state":"succeeded"`) {
		t.Errorf("stream never reported success:\n%s", out)
	}
}

// TestServerCancel cancels over HTTP and sees the terminal state.
func TestServerCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, CheckpointEvery: 64})
	long := testConfig(23)
	long.MeasurePackets = 50000
	spec, _ := json.Marshal(Spec{Config: long})
	resp := postJSON(t, ts.URL+"/jobs", string(spec))
	j := decodeJob(t, resp.Body)
	resp.Body.Close()
	cr := postJSON(t, ts.URL+"/jobs/"+j.ID+"/cancel", "")
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", cr.StatusCode)
	}
	cr.Body.Close()
	deadline := time.Now().Add(time.Minute)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeJob(t, r.Body)
		r.Body.Close()
		if cur.State.Terminal() {
			if cur.State != Canceled {
				t.Fatalf("state %s, want canceled", cur.State)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never terminated after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerErrors: malformed and invalid submissions get 400, unknown
// jobs 404, and a result requested before one exists 409.
func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		body string
		want int
	}{
		{"{not json", http.StatusBadRequest},
		{`{"config": {"Router": "warp-drive"}}`, http.StatusBadRequest},
		{`{"config": {"Width": 4, "Height": 4, "InjectionRate": -2}}`, http.StatusBadRequest},
		{`{"config": {}, "unknown_field": 1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/jobs", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("submit %q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}
	r, _ := http.Get(ts.URL + "/jobs/j-no-such")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
	r.Body.Close()

	long := testConfig(24)
	long.MeasurePackets = 50000
	spec, _ := json.Marshal(Spec{Config: long})
	resp := postJSON(t, ts.URL+"/jobs", string(spec))
	j := decodeJob(t, resp.Body)
	resp.Body.Close()
	rr, _ := http.Get(ts.URL + "/jobs/" + j.ID + "/result")
	if rr.StatusCode != http.StatusConflict {
		t.Errorf("early result: status %d, want 409", rr.StatusCode)
	}
	rr.Body.Close()
}

// TestServerRejectsRemovedKernelField pins the strict spec decoder: a
// job that still selects the removed SoAKernel knob is refused with 400
// and an error naming the field, instead of silently running on a kernel
// the client did not ask for.
func TestServerRejectsRemovedKernelField(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"config": {
		"Width": 4, "Height": 4, "Router": "roco", "InjectionRate": 0.2,
		"WarmupPackets": 50, "MeasurePackets": 400, "Seed": 3,
		"SoAKernel": true
	}}`
	resp := postJSON(t, ts.URL+"/jobs", body)
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "SoAKernel") {
		t.Errorf("error body does not name the field: %s", b)
	}
}
