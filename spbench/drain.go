package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cron"
	"repro/internal/storage"
)

// drainToken is the shared bearer token of the primary's write API.
const drainToken = "spbench"

// drainFileSlack bounds how far the files of two worker-drain cycles
// may differ: lost claim races leave unbound lease blobs (see
// compareFingerprints); untraced cycles differ by up to 2 here.
const drainFileSlack = 8

// apiServer is the primary's loopback store API. Each cycle's fresh
// store is swapped in behind the same listener.
type apiServer struct {
	srv  *http.Server
	url  string
	done chan struct{}

	mu sync.RWMutex
	h  http.Handler // guarded by mu
}

func (a *apiServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mu.RLock()
	h := a.h
	a.mu.RUnlock()
	if h == nil {
		http.Error(w, "no store attached", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// attach serves store's write-enabled API, as spd -listen does.
func (b *bench) attach(a *apiServer, store *storage.Store) {
	var api http.Handler = storage.NewAPIHandler(store, nil).EnableWrites(drainToken)
	if b.traced() {
		api = b.timeAPI(api)
	}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", http.StripPrefix("/api/v1", api))
	a.mu.Lock()
	a.h = mux
	a.mu.Unlock()
}

func (a *apiServer) close() error {
	err := a.srv.Close()
	<-a.done
	return err
}

// runWorkerDrain measures distributed cycles: a primary draining its
// plan beside one remote worker.
func runWorkerDrain(b *bench) error {
	// Set-up starts the primary's API listener and, as a warm-up, does
	// everything a cycle does before draining: attach a fresh store,
	// build the primary's system and plan, open the remote worker's view
	// and build its system and plan; 100 times, as it is short.
	api, setup, err := medianSetup(b, 100, func(i int) (*apiServer, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		a := &apiServer{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
		a.srv = &http.Server{Handler: a}
		go func() {
			defer close(a.done)
			a.srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		err = b.untraced(func() error {
			dir, err := b.storeDir(fmt.Sprintf("setup-%d", i))
			if err != nil {
				return err
			}
			store, err := storage.OpenWith(dir, storeOptions)
			if err != nil {
				return err
			}
			b.attach(a, store)
			err = warmPlan(b, store)
			if err == nil {
				var remote *storage.Store
				if remote, err = storage.OpenRemoteWith(a.url, storage.RemoteOptions{Token: drainToken}); err == nil {
					err = warmPlan(b, remote)
					if cerr := remote.Close(); cerr != nil && err == nil {
						err = cerr
					}
				}
			}
			if cerr := store.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			return removeFiles(dir)
		})
		if err != nil {
			//spvet:allow syncclose — set-up failed; its error is the result
			a.close()
			return nil, err
		}
		return a, nil
	}, func(a *apiServer) error { return a.close() })
	if err != nil {
		return err
	}
	defer func() {
		//spvet:allow syncclose — the listener serves no data once the run is over
		api.close()
	}()

	var (
		cs   cycleStats
		ref  *cycleResult
		refs []float64
	)
	lx := b.newExtras()
	deadline := b.now().Add(b.work)
	last := 0.0
	for n := 1; b.another(deadline, last) || (b.traced() && cs.traceCycles == 0); n++ {
		if b.traced() && ref == nil {
			if err := b.untraced(func() (err error) {
				ref, err = b.drainCycle(api, n, nil)
				return err
			}); err != nil {
				return err
			}
			refs = append(refs, ref.wall)
			last = ref.wall
			continue
		}
		cr, err := b.drainCycle(api, n, lx)
		if err != nil {
			return err
		}
		last = cr.wall
		b.logCycle(n, cr)
		cs.add(cr)
		if b.traced() {
			if cs.traceCycles == 0 {
				b.compareFingerprints(ref.fp, cr.fp, drainFileSlack)
			}
			cs.traceCycles++
		}
	}
	if b.traced() {
		b.layerMetrics(len(cs.walls), median(cs.walls), median(refs), lx)
		return nil
	}
	b.report(&cs, setup)
	return nil
}

// warmPlan builds a quick-scale system over store and plans the matrix.
func warmPlan(b *bench, store *storage.Store) error {
	sys, err := b.newSystem(store, true)
	if err != nil {
		return err
	}
	cells, err := matrixCells(sys)
	if err != nil {
		return err
	}
	_, err = campaign.New(sys, engineWorkers).Plan(cells)
	return err
}

// drainCycle runs one distributed cycle on a fresh primary store and
// checks exactly-once execution.
func (b *bench) drainCycle(api *apiServer, n int, lx *layerExtras) (*cycleResult, error) {
	dir, err := b.storeDir(fmt.Sprintf("drain-%d", n))
	if err != nil {
		return nil, err
	}
	syscall.Sync()
	transport := &timedTransport{next: &http.Transport{}, now: b.now}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var (
		store  *storage.Store
		pplan  *campaign.Plan
		cells  []campaign.Cell
		sums   [2]*campaign.Summary
		stats  [2]*campaign.QueueStats
		matrix string
	)
	cr := &cycleResult{}
	rss := sampleRSS()
	cr.from = b.usage()
	b.beginCycle(n)
	err = b.stage("storage.open", func() (err error) {
		store, err = b.openStore(dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.attach(api, store)
	err = b.cycleBody(store, func() error {
		var engine *campaign.Engine
		if err := b.stage("core.system", func() error {
			sys, err := b.newSystem(store, true)
			if err != nil {
				return err
			}
			lx.addSystem(sys)
			engine = campaign.New(sys, engineWorkers)
			cells, err = matrixCells(sys)
			return err
		}); err != nil {
			return err
		}
		if err := b.stage("campaign.plan", func() (err error) {
			pplan, err = engine.Plan(cells)
			return err
		}); err != nil {
			return err
		}
		lx.addPlan(pplan)
		if err := b.stage("campaign.plan_store", func() error { return pplan.Store(store) }); err != nil {
			return err
		}
		if err := b.stage("campaign.execute", func() error {
			var (
				wg   sync.WaitGroup
				werr error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[1], stats[1], werr = b.remoteWorker(api.url, client, lx)
			}()
			var perr error
			sums[0], stats[0], perr = engine.DrainPlan(context.Background(), pplan, b.queueOptions("primary"))
			wg.Wait()
			if perr != nil {
				return perr
			}
			return werr
		}); err != nil {
			return err
		}
		x, _, err := b.publish(store)
		if err != nil {
			return err
		}
		if matrix, err = matrixJSON(x.Matrix()); err != nil {
			return err
		}
		return b.maintain(store)
	})
	b.endCycle(n)
	cr.to = b.usage()
	cr.rssMB = rss.done()
	if err != nil {
		return nil, err
	}
	cr.wall = cr.to.at.Sub(cr.from.at).Seconds()
	reqs, bad := transport.take()
	cr.requestsMS = reqs
	b.attempted += len(reqs)
	b.failed += bad

	files, bytes, err := dirUsage(dir)
	if err != nil {
		return nil, err
	}
	cr.fp = fingerprint{plan: planDigest(pplan), matrix: matrix, files: files}
	cr.bytes = bytes
	executed := 0
	for i, st := range stats {
		executed += st.Executed
		b.check(st.Stolen == 0 && st.Lost == 0, "worker-drain cycle %d: drainer %d stole %d and lost %d leases, want 0", n, i, st.Stolen, st.Lost)
		lx.addQueue(st)
		for _, o := range sums[i].Outcomes {
			b.check(o.Err == nil && o.Passed, "worker-drain cycle %d: drainer %d: cell %s not OK (%s, %d runs, peer-done %v, err %v)",
				n, i, o.Cell.Label(), o.RunID, o.Runs, o.Skipped, o.Err)
		}
	}
	done, replanned, err := b.afterDrain(dir)
	if err != nil {
		return nil, err
	}
	b.check(executed == done && done == pplan.RunCount() && done > 0,
		"worker-drain cycle %d: executed %d, done leases %d, planned %d; want all equal", n, executed, done, pplan.RunCount())
	b.check(replanned == 0, "worker-drain cycle %d: re-plan has %d cells to run, want 0", n, replanned)
	lx.settle()
	return cr, removeFiles(dir)
}

// remoteWorker is one spd -worker cycle over the primary's API: open
// the remote store, build the system, plan, drain.
func (b *bench) remoteWorker(url string, client *http.Client, lx *layerExtras) (*campaign.Summary, *campaign.QueueStats, error) {
	var remote *storage.Store
	if err := b.inner("storage.open", func() (err error) {
		remote, err = b.openRemote(url, storage.RemoteOptions{Token: drainToken, Client: client})
		return err
	}); err != nil {
		return nil, nil, err
	}
	var (
		sys  *core.SPSystem
		plan *campaign.Plan
	)
	err := b.inner("core.system", func() (err error) {
		sys, err = b.newSystem(remote, true)
		return err
	})
	engine := campaign.New(sys, engineWorkers)
	if err == nil {
		lx.addSystem(sys)
		err = b.inner("campaign.plan", func() error {
			cells, err := matrixCells(sys)
			if err == nil {
				plan, err = engine.Plan(cells)
			}
			return err
		})
	}
	var (
		sum   *campaign.Summary
		stats *campaign.QueueStats
	)
	if err == nil {
		sum, stats, err = engine.DrainPlan(context.Background(), plan, b.queueOptions("worker-1"))
	}
	if cerr := remote.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return sum, stats, err
}

// queueOptions are a drainer's lease-queue options: the defaults, with
// the Now, Sleep and OnEvent seams timed on traced runs.
func (b *bench) queueOptions(worker string) campaign.QueueOptions {
	opts := campaign.QueueOptions{Worker: worker}
	if tr := b.tr; tr != nil {
		sleep := cron.Sleeper()
		opts.Now = cron.Wall()
		opts.Sleep = func(d time.Duration) {
			t0 := tr.now()
			sleep(d)
			tr.leaf("campaign.queue.wait", levelInner, t0)
			tr.add("campaign.queue.wait_s", tr.now().Sub(t0).Seconds())
		}
		opts.OnEvent = func(format string, args ...interface{}) {
			if strings.HasPrefix(format, "queue: claimed") || strings.HasPrefix(format, "queue: stole") {
				tr.add("campaign.queue.claims", 1)
			}
		}
	}
	return opts
}

// afterDrain re-opens the closed primary store read-only and returns
// its done-lease count and the number of cells a fresh plan would run.
func (b *bench) afterDrain(dir string) (done, replanned int, err error) {
	view, err := storage.OpenReadOnly(dir)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := view.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for _, rec := range campaign.LoadLeases(view) {
		if rec.State == campaign.LeaseDone {
			done++
		}
	}
	err = b.untraced(func() error {
		sys, err := b.newSystem(view, true)
		if err != nil {
			return err
		}
		cells, err := matrixCells(sys)
		if err != nil {
			return err
		}
		plan, err := campaign.New(sys, engineWorkers).Plan(cells)
		if err == nil {
			replanned = plan.RunCount()
		}
		return err
	})
	return done, replanned, err
}
