package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func getStatusz(t testing.TB, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w
}

// TestStatuszIdle checks the JSON and text renderings of an idle daemon.
func TestStatuszIdle(t *testing.T) {
	s, _ := newLoggedServer(t, Config{MaxConcurrent: 3})
	if w := postModel(t, s, setBody(t, noisySet(9, 0.02, func(x float64) float64 { return 5 * x }))); w.Code != http.StatusOK {
		t.Fatalf("model request: status %d", w.Code)
	}

	w := getStatusz(t, s, "/statusz?format=json")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("statusz json: status %d, type %q", w.Code, w.Header().Get("Content-Type"))
	}
	var resp StatuszResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Requests != 1 || resp.Kernels != 1 {
		t.Fatalf("statusz body: %+v", resp)
	}
	if resp.LimiterCapacity != 3 || resp.LimiterUsed != 0 {
		t.Fatalf("limiter occupancy %d/%d, want 0/3", resp.LimiterUsed, resp.LimiterCapacity)
	}
	if len(resp.InFlight) != 0 {
		t.Fatalf("idle daemon reports in-flight requests: %+v", resp.InFlight)
	}
	if resp.AccessLogLines != 1 {
		t.Fatalf("access_log_lines %d, want 1", resp.AccessLogLines)
	}

	// Accept-header negotiation works too.
	aw := httptest.NewRecorder()
	ar := httptest.NewRequest(http.MethodGet, "/statusz", nil)
	ar.Header.Set("Accept", "application/json")
	s.Handler().ServeHTTP(aw, ar)
	if !strings.Contains(aw.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("Accept: application/json got %q", aw.Header().Get("Content-Type"))
	}

	tw := getStatusz(t, s, "/statusz")
	if tw.Code != http.StatusOK || !strings.Contains(tw.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("statusz text: status %d, type %q", tw.Code, tw.Header().Get("Content-Type"))
	}
	text := tw.Body.String()
	for _, want := range []string{"modelerd statusz", "status:", "limiter:", "adapt cache:", "in flight:"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}

	if pw := getStatusz(t, s, "/statusz"); pw.Code != http.StatusOK {
		t.Fatalf("second GET: %d", pw.Code)
	}
	if mw := httptest.NewRecorder(); true {
		s.Handler().ServeHTTP(mw, httptest.NewRequest(http.MethodPost, "/statusz", nil))
		if mw.Code != http.StatusMethodNotAllowed {
			t.Fatalf("POST /statusz: status %d, want 405", mw.Code)
		}
	}
}

// TestStatuszInFlight checks a streaming request shows up in the live table —
// with its client, endpoint, and request ID — while it is executing.
func TestStatuszInFlight(t *testing.T) {
	s, _ := newLoggedServer(t, Config{Workers: 1})

	// A profile request fed through a pipe: the handler admits it, reads the
	// header line, then blocks on the body — pinned in flight until we finish.
	// One goroutine writes the body in order: the header, then (once the
	// table check below is done) the entry. Two unsynchronised writers could
	// deliver the entry first, and the scanner would read it as the header.
	pr, pw := io.Pipe()
	finish := make(chan []byte)
	go func() {
		pw.Write([]byte(`{"application":"test","param_names":["p"]}` + "\n"))
		// Keep the pipe open: the scanner blocks waiting for the next entry.
		pw.Write(<-finish)
		pw.Close()
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/v1/profile", pr)
		req.Header.Set(clientIDHeader, "inflight-test")
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()

	var got StatuszRequest
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := getStatusz(t, s, "/statusz?format=json")
		var resp StatuszResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.InFlight) == 1 {
			got = resp.InFlight[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request never appeared in /statusz: %+v", resp.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Endpoint != "profile" || got.Client != "inflight-test" || got.ID == "" {
		t.Fatalf("in-flight entry: %+v", got)
	}
	if got.AgeSeconds < 0 {
		t.Fatalf("negative age: %+v", got)
	}

	// Finish the stream with one entry and close; the request must leave the
	// table.
	entry, _ := json.Marshal(map[string]any{
		"kernel": "k", "metric": "time",
		"measurements": noisySet(2, 0.02, func(x float64) float64 { return x }),
	})
	finish <- append(entry, '\n')
	<-done

	w := getStatusz(t, s, "/statusz?format=json")
	var resp StatuszResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.InFlight) != 0 {
		t.Fatalf("completed request still in table: %+v", resp.InFlight)
	}
	if resp.Kernels != 1 {
		t.Fatalf("kernels %d, want 1", resp.Kernels)
	}
}

// TestRequestSecondsHistogram checks every request — success and reject alike
// — lands in the server_request_seconds{endpoint,status} family.
func TestRequestSecondsHistogram(t *testing.T) {
	s := newRegServer(t, Config{})
	before2xx := obsRequestSeconds["model"][0].Count()
	before4xx := obsRequestSeconds["model"][1].Count()

	if w := postModel(t, s, setBody(t, noisySet(6, 0.02, func(x float64) float64 { return 4 * x }))); w.Code != http.StatusOK {
		t.Fatalf("model: %d", w.Code)
	}
	if w := postModel(t, s, []byte("{not json")); w.Code != http.StatusBadRequest {
		t.Fatalf("bad model: %d", w.Code)
	}

	if got := obsRequestSeconds["model"][0].Count() - before2xx; got != 1 {
		t.Fatalf("2xx observations %d, want 1", got)
	}
	if got := obsRequestSeconds["model"][1].Count() - before4xx; got != 1 {
		t.Fatalf("4xx observations %d, want 1", got)
	}
}
