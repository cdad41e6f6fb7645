package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cron"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/simrand"
	"repro/internal/storage"
)

// serve-live load settings (see the package comment).
const (
	archiveRuns    = 10000                  // synthesized runs in the served archive
	serveRate      = 60                     // requests per second, open loop
	serveConns     = 2                      // generator connections
	writerInterval = 100 * time.Millisecond // one appended run per interval
	serveRefresh   = time.Second            // spserve's production RefreshEvery
	serveSetups    = 3                      // fixtures built per untraced run; set-up is their median
)

// Request classes of the serve-live mix.
const (
	classDashboard = iota
	classRevalidate
	classBrowse
)

var dashboardRoutes = []string{"/", "/api/v1/matrix", "/api/v1/runs?limit=100"}

// serveFixture is a served archive: the writer, the read-only view,
// the status server on its loopback listener, and the blob address of
// every archived run record.
type serveFixture struct {
	dir    string
	writer *storage.Store
	view   *storage.Store
	srv    *http.Server
	url    string
	done   chan struct{} // closed when Serve returns
	times  *handlerTimes
	hashes []string // hashes[i] is run-(i+1)'s record blob
}

// runServeLive measures the status server under open-loop load while
// a writer appends.
func runServeLive(b *bench) error {
	var setups []float64
	build := func(i int) (*serveFixture, error) {
		t0 := b.now()
		dir, err := b.storeDir(fmt.Sprintf("serve-%d", i))
		if err != nil {
			return nil, err
		}
		fx, err := b.buildServe(dir)
		setups = append(setups, b.since(t0))
		return fx, err
	}
	if !b.traced() {
		var fx *serveFixture
		for i := 0; i < serveSetups; i++ {
			if fx != nil {
				if err := fx.stop(); err != nil {
					return err
				}
			}
			var err error
			if fx, err = build(i); err != nil {
				return err
			}
		}
		ph, err := b.serveLoad(fx, b.work, 0)
		if cerr := fx.close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		b.report(&ph.cycles, median(setups))
		return nil
	}

	// Traced runs load an untraced fixture for half the time, then a
	// traced one for the other half; the difference is the overhead.
	var plain *phaseResult
	err := b.untraced(func() error {
		fx, err := build(0)
		if err != nil {
			return err
		}
		plain, err = b.serveLoad(fx, b.work/2, 0)
		if cerr := fx.stop(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	fx, err := build(1)
	if err != nil {
		return err
	}
	ph, err := b.serveLoad(fx, b.work/2, 1<<20)
	if cerr := fx.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	n := len(ph.cycles.walls)
	b.setServeLayers(ph, n)
	b.layerMetrics(n, median(ph.cycles.requestsMS), median(plain.cycles.requestsMS), nil)
	return nil
}

// buildServe synthesizes and compacts the archive in dir, then attaches
// what spserve and its writer attach: the writer store, the read-only
// view, the server on a loopback listener, and a warm render cache.
func (b *bench) buildServe(dir string) (*serveFixture, error) {
	st, err := storage.OpenWith(dir, storeOptions)
	if err != nil {
		return nil, err
	}
	_, _, err = runner.SynthesizeRuns(st, archiveRuns, runner.SynthOptions{FailEvery: 10})
	if err == nil {
		_, err = st.Compact()
	}
	if cerr := st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	syscall.Sync()

	fx := &serveFixture{dir: dir, times: &handlerTimes{byID: make(map[int]time.Duration)}}
	if fx.writer, err = storage.OpenWith(dir, storeOptions); err != nil {
		return nil, err
	}
	fail := func(err error) (*serveFixture, error) {
		//spvet:allow syncclose — set-up failed; its error is the result
		fx.close()
		return nil, err
	}
	for i := 1; i <= archiveRuns; i++ {
		h, err := fx.writer.Hash(runner.RunsNS, fmt.Sprintf("run-%04d", i))
		if err != nil {
			return fail(err)
		}
		fx.hashes = append(fx.hashes, h)
	}
	if fx.view, err = b.openView(dir); err != nil {
		return fail(err)
	}
	srv, err := serve.NewWith(fx.view, serve.Options{Title: title, RefreshEvery: serveRefresh})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	h := srv.Handler()
	if b.traced() {
		h = b.timeServe(h, fx.times)
	}
	fx.srv = &http.Server{Handler: h}
	fx.url = "http://" + ln.Addr().String()
	fx.done = make(chan struct{})
	go func() {
		defer close(fx.done)
		fx.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	for _, route := range dashboardRoutes {
		resp, err := client.Get(fx.url + route)
		if err != nil {
			return fail(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fail(err)
		}
		if resp.StatusCode != http.StatusOK {
			return fail(fmt.Errorf("warming %s: status %d", route, resp.StatusCode))
		}
	}
	return fx, nil
}

// stop stops the server and releases both stores, keeping the files.
// A set-up replaced by the next one is only stopped, and the run's
// clean-up deletes its files: deleting an archive just before the load
// is timed made the writer's file creates up to six times slower in
// some runs, as ext4 skips the freshly freed inodes (see
// spreadSubdirs).
func (fx *serveFixture) stop() error {
	var err error
	if fx.srv != nil {
		err = fx.srv.Close()
		<-fx.done
		fx.srv = nil
	}
	for _, st := range []*storage.Store{fx.view, fx.writer} {
		if st != nil {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	fx.view, fx.writer = nil, nil
	return err
}

// close stops the fixture and deletes its files.
func (fx *serveFixture) close() error {
	err := fx.stop()
	if rerr := removeFiles(fx.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// request is one scheduled request of the open-loop generator.
type request struct {
	id    int
	due   time.Time
	class int
	path  string
	route string // the dashboard route whose ETag a revalidation sends
	runID string // the run a browse request must name
	hash  string // the address a blob must hash to
}

// schedule generates the seeded request plan for a window.
func (b *bench) schedule(fx *serveFixture, start time.Time, window time.Duration, firstID int) []request {
	rng := simrand.New(b.cfg.seed).Derive("serve-live")
	count := int(window.Seconds() * serveRate)
	gap := time.Second / serveRate
	reqs := make([]request, count)
	for i := range reqs {
		r := request{
			id:  firstID + i,
			due: start.Add(time.Duration(i)*gap + time.Duration(rng.Float64()*float64(gap))),
		}
		switch r.class = rng.Pick([]float64{0.5, 0.2, 0.3}); r.class {
		case classDashboard, classRevalidate:
			r.route = dashboardRoutes[rng.Intn(len(dashboardRoutes))]
			r.path = r.route
		default:
			n := 1 + rng.Intn(archiveRuns)
			r.runID = fmt.Sprintf("run-%04d", n)
			switch rng.Intn(3) {
			case 0:
				r.path = "/runs/" + r.runID
			case 1:
				r.path = "/diff/" + r.runID
			default:
				r.hash = fx.hashes[n-1]
				r.path = "/api/v1/blob/" + r.hash
				r.runID = ""
			}
		}
		reqs[i] = r
	}
	return reqs
}

// phaseResult is what one load window measured.
type phaseResult struct {
	cycles    cycleStats // cycle = one writer append
	byClass   [3][]float64
	lateMS    []float64
	waitMS    []float64
	handlerMS []float64
	health    [2]healthCache
}

// healthCache is the /healthz cache block.
type healthCache struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Renders     int64 `json:"renders"`
	NotModified int64 `json:"not_modified"`
}

// serveLoad runs the generator and the writer against fx for window.
func (b *bench) serveLoad(fx *serveFixture, window time.Duration, firstID int) (*phaseResult, error) {
	ph := &phaseResult{}
	var err error
	if ph.health[0], err = fx.health(); err != nil {
		return nil, err
	}
	files0, bytes0, err := dirUsage(fx.dir)
	if err != nil {
		return nil, err
	}
	start := b.now().Add(50 * time.Millisecond)
	reqs := b.schedule(fx, start, window, firstID)
	rss := sampleRSS()
	from := b.usage()

	var (
		mu       sync.Mutex
		next     int
		etags    = make(map[string]string)
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		writeErr error
		appends  []float64 // seconds each append took
	)
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		sleep := cron.Sleeper()
		for k := 1; ; k++ {
			at := start.Add(time.Duration(k) * writerInterval)
			select {
			case <-stop:
				return
			default:
			}
			if d := at.Sub(b.now()); d > 0 {
				sleep(d)
			}
			select {
			case <-stop:
				return
			default:
			}
			t0 := b.now()
			if _, _, err := runner.SynthesizeRuns(fx.writer, 1, runner.SynthOptions{FailEvery: 10}); err != nil {
				writeErr = err
				return
			}
			appends = append(appends, b.since(t0))
		}
	}()

	results := make([]float64, len(reqs))
	failed := make([]bool, len(reqs))
	var senders sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			client := &http.Client{Transport: &http.Transport{DisableCompression: true, MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			sleep := cron.Sleeper()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				if d := r.due.Sub(b.now()); d > 0 {
					sleep(d)
				}
				sent := b.now()
				mu.Lock()
				inm := ""
				if r.class == classRevalidate {
					inm = etags[r.route]
				}
				ph.lateMS = append(ph.lateMS, ms(sent.Sub(r.due)))
				mu.Unlock()
				etag, ok := b.do(client, fx, r, inm)
				end := b.now()
				lat := ms(end.Sub(r.due))
				if !ok {
					failed[i] = true
					lat = ms(window) // a failed request misses any latency limit
				}
				results[i] = lat
				mu.Lock()
				if etag != "" && r.class != classBrowse {
					etags[r.route] = etag
				}
				ph.byClass[r.class] = append(ph.byClass[r.class], lat)
				mu.Unlock()
				if b.tr != nil {
					b.tr.record("request", levelRoot, r.due, end, -1, r.id, 0)
					if hd, ok := fx.times.get(r.id); ok {
						mu.Lock()
						ph.handlerMS = append(ph.handlerMS, ms(hd))
						ph.waitMS = append(ph.waitMS, lat-ms(hd))
						mu.Unlock()
					}
				}
			}
		}()
	}
	senders.Wait()
	close(stop)
	wg.Wait()
	to := b.usage()
	rssMB := rss.done()
	if writeErr != nil {
		return nil, writeErr
	}
	if ph.health[1], err = fx.health(); err != nil {
		return nil, err
	}
	files1, bytes1, err := dirUsage(fx.dir)
	if err != nil {
		return nil, err
	}

	if len(appends) == 0 {
		return nil, fmt.Errorf("serve-live: the writer appended nothing in %v", window)
	}
	// A cycle is one writer append, the write the server must pick up:
	// its wall time is the append's, and its costs are everything the
	// process did in the window, spread over the appends.
	c := &ph.cycles
	c.walls = appends
	c.cpus = []float64{(to.cpu - from.cpu) / float64(len(appends))}
	c.alloc = float64(to.alloc - from.alloc)
	c.files = float64(files1 - files0)
	c.bytes = float64(bytes1 - bytes0)
	c.requestsMS = results
	c.rssMB = []float64{rssMB}
	b.attempted += len(reqs)
	for i := range reqs {
		if failed[i] {
			b.failed++
		}
	}
	return ph, nil
}

// do sends one request and checks its response. It returns the
// response's ETag and whether the request succeeded.
func (b *bench) do(client *http.Client, fx *serveFixture, r *request, inm string) (string, bool) {
	req, err := http.NewRequest(http.MethodGet, fx.url+r.path, nil)
	if err != nil {
		return "", b.checkLocked(false, "serve-live request %d: %v", r.id, err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	req.Header.Set(requestIDHeader, strconv.Itoa(r.id))
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", b.checkLocked(false, "serve-live %s: %v", r.path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", b.checkLocked(false, "serve-live %s: reading body: %v", r.path, err)
	}
	etag := resp.Header.Get("ETag")
	switch {
	case resp.StatusCode == http.StatusNotModified:
		return etag, b.checkLocked(inm != "", "serve-live %s: 304 without If-None-Match", r.path)
	case resp.StatusCode != http.StatusOK:
		return etag, b.checkLocked(false, "serve-live %s: status %d", r.path, resp.StatusCode)
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err == nil {
			body, err = io.ReadAll(zr)
		}
		if err != nil {
			return etag, b.checkLocked(false, "serve-live %s: gunzip: %v", r.path, err)
		}
	}
	switch {
	case r.hash != "":
		return etag, b.checkLocked(storage.HashBytes(body) == r.hash, "serve-live %s: blob does not hash to its address", r.path)
	case r.runID != "" && strings.HasPrefix(r.path, "/runs/"):
		return etag, b.checkLocked(bytes.Contains(body, []byte(r.runID)), "serve-live %s: page does not name %s", r.path, r.runID)
	}
	return etag, true
}

// checkLocked is check for concurrent senders.
func (b *bench) checkLocked(ok bool, format string, args ...interface{}) bool {
	if ok {
		return true
	}
	b.checkMu.Lock()
	defer b.checkMu.Unlock()
	return b.check(false, format, args...)
}

// health reads the server's /healthz cache counters.
func (fx *serveFixture) health() (healthCache, error) {
	var doc struct {
		Cache healthCache `json:"cache"`
	}
	resp, err := http.Get(fx.url + "/healthz")
	if err != nil {
		return doc.Cache, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc.Cache, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Cache, err
}

// setServeLayers sets the serve.* per-layer metrics of a traced phase
// with n writer appends.
func (b *bench) setServeLayers(ph *phaseResult, n int) {
	per := func(v float64) float64 { return v / float64(n) }
	_, hs := b.tr.stats("serve.handler")
	b.set("serve.handler.s", "s", per(hs))
	b.set("serve.handler.p99_ms", "ms", percentile(ph.handlerMS, 0.99))
	b.set("serve.wait.p99_ms", "ms", percentile(ph.waitMS, 0.99))
	b.set("serve.dashboard.p50_ms", "ms", median(ph.byClass[classDashboard]))
	b.set("serve.dashboard.p99_ms", "ms", percentile(ph.byClass[classDashboard], 0.99))
	b.set("serve.browse.p50_ms", "ms", median(ph.byClass[classBrowse]))
	b.set("serve.browse.p99_ms", "ms", percentile(ph.byClass[classBrowse], 0.99))
	b.set("serve.revalidate.p50_ms", "ms", median(ph.byClass[classRevalidate]))
	h0, h1 := ph.health[0], ph.health[1]
	hits, misses := float64(h1.Hits-h0.Hits), float64(h1.Misses-h0.Misses)
	b.set("serve.cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	b.set("serve.renders", "count", per(float64(h1.Renders-h0.Renders)))
	b.set("serve.not_modified", "count", per(float64(h1.NotModified-h0.NotModified)))
	// /healthz has no index-query counter; a cache miss is the path that
	// queries the index, so misses stand in for it.
	b.set("serve.index_queries", "count", per(misses))
	b.set("serve.gen.late_p99_ms", "ms", percentile(ph.lateMS, 0.99))
	b.set("serve.writer.appends", "count", float64(n))
	b.set("serve.writer.append_p50_ms", "ms", 1000*median(ph.cycles.walls))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
