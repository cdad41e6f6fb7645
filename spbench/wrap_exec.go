package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/valtest"
)

// timedDriver is the timing valtest.Driver. It keeps the inner driver's
// Name, so the platform driver's digests do not change when it is
// re-registered behind the wrapper.
type timedDriver struct {
	inner valtest.Driver
	tr    *tracer
}

func (d *timedDriver) Name() string { return d.inner.Name() }

// Provision is the build on the platform driver.
func (d *timedDriver) Provision(req valtest.ProvisionRequest) (*valtest.Context, error) {
	t0 := d.tr.now()
	ctx, err := d.inner.Provision(req)
	d.tr.leaf("buildsys.provision", levelInner, t0)
	return ctx, err
}

func (d *timedDriver) RunTest(t valtest.Test, ctx *valtest.Context) valtest.Result {
	t0 := d.tr.now()
	res := d.inner.RunTest(t, ctx)
	d.tr.leaf("valtest.run_test", levelInner, t0)
	return res
}

func (d *timedDriver) Collect(ctx *valtest.Context, res valtest.Result) valtest.Result {
	t0 := d.tr.now()
	out := d.inner.Collect(ctx, res)
	d.tr.leaf("valtest.collect", levelInner, t0)
	return out
}

// statusWriter records the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// requestIDHeader carries the load generator's request id to the
// server-side handler wrapper, which pairs handler time with client
// latency by it.
const requestIDHeader = "X-Spbench-Request"

// handlerTimes keeps the server-side duration of each identified
// request.
type handlerTimes struct {
	mu   sync.Mutex
	byID map[int]time.Duration // guarded by mu
}

func (h *handlerTimes) get(id int) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byID[id]
	return d, ok
}

// timeServe wraps the status server's handler: every request is a
// serve.handler span.
func (b *bench) timeServe(next http.Handler, times *handlerTimes) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := b.tr.now()
		next.ServeHTTP(w, r)
		end := b.tr.now()
		id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
		if err != nil {
			id = -1
		}
		b.tr.record("serve.handler", levelStage, t0, end, -2, id, goid())
		if id >= 0 {
			times.mu.Lock()
			times.byID[id] = end.Sub(t0)
			times.mu.Unlock()
		}
	})
}

// timeAPI wraps the primary's write-enabled store API: every request is
// a storage.api span, counted by route.
func (b *bench) timeAPI(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := b.tr.now()
		next.ServeHTTP(sw, r)
		b.tr.leaf("storage.api", levelInner, t0)
		if sw.status >= 400 {
			b.tr.add("storage.api.errors", 1)
		}
		switch {
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/blob/"):
			b.tr.add("storage.api.blob_puts", 1)
		case r.Method == http.MethodPost && r.URL.Path == "/name":
			b.tr.add("storage.api.name_posts", 1)
		case r.Method == http.MethodPost && r.URL.Path == "/counter":
			b.tr.add("storage.api.counter_posts", 1)
		}
	})
}

// timedTransport times each round trip of a client as one request of
// the workload.
type timedTransport struct {
	next http.RoundTripper
	now  func() time.Time

	mu  sync.Mutex
	ms  []float64 // guarded by mu
	bad int       // guarded by mu; transport errors and 5xx responses
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := t.now()
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		t.done(t0, true)
		return nil, err
	}
	// The request ends when the caller has read and closed the body.
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.done(t0, resp.StatusCode >= 500) }}
	return resp, nil
}

func (t *timedTransport) done(t0 time.Time, bad bool) {
	d := t.now().Sub(t0)
	t.mu.Lock()
	t.ms = append(t.ms, float64(d)/float64(time.Millisecond))
	if bad {
		t.bad++
	}
	t.mu.Unlock()
}

// timedBody reports when the response body is closed, once.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// take returns and clears the recorded latencies and failures.
func (t *timedTransport) take() ([]float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms, bad := t.ms, t.bad
	t.ms, t.bad = nil, 0
	return ms, bad
}
