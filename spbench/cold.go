package main

import (
	"context"
	"fmt"
	"syscall"

	"repro/internal/bookkeep"
	"repro/internal/campaign"
	"repro/internal/storage"
)

// Expected shape of a cold Figure 3 campaign: 15 cells, every one green,
// and at seed 0 (the core.NewHERA systems) 18 runs, the migrations
// iterating. Other seeds generate other repositories, whose migrations
// may take another iteration; there every cycle of a run must record
// the same number of runs, at least one per cell.
const (
	coldCells = 15
	coldRuns  = 18
)

// coldSetups is how many warm-up cycles campaign-cold's set-up runs.
const coldSetups = 3

// statusReads is how many times each cold cycle's status is read back
// once the cycle has closed its store: these are the workload's
// requests.
const statusReads = 3

// readStatus is an operator's status request after a cycle, as spserve
// and `spsys matrix` answer it: open a read-only view of the store,
// index it, and return the matrix as matrixJSON renders it.
func readStatus(dir string) (matrix string, err error) {
	view, err := storage.OpenReadOnly(dir)
	if err != nil {
		return "", err
	}
	defer func() {
		if cerr := view.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	x, err := bookkeep.BuildIndex(view)
	if err != nil {
		return "", err
	}
	return matrixJSON(x.Matrix())
}

// runCampaignCold measures spd primary cycles from an empty disk store
// at production scale.
func runCampaignCold(b *bench) error {
	// Set-up warms the process with whole cold cycles, each on a store
	// of its own and unchecked. A lighter set-up (attach, build the
	// system, plan: about 12 ms) moved by up to 30% between sets of ten
	// runs of the same code, while a cycle's time moved by under 10%.
	_, setup, err := medianSetup(b, coldSetups, func(i int) (struct{}, error) {
		return struct{}{}, b.untraced(func() error {
			dir, err := b.storeDir(fmt.Sprintf("setup-%d", i))
			if err != nil {
				return err
			}
			store, err := storage.OpenWith(dir, storeOptions)
			if err != nil {
				return err
			}
			_, _, err = b.coldCampaign(store, nil)
			if cerr := store.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			return removeFiles(dir)
		})
	}, func(struct{}) error { return nil })
	if err != nil {
		return err
	}

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
			// The untraced reference cycle of the transparency check.
			if err := b.untraced(func() (err error) {
				ref, err = b.coldCycle(n, nil)
				return err
			}); err != nil {
				return err
			}
			refs = append(refs, ref.wall)
			last = ref.wall
			continue
		}
		cr, err := b.coldCycle(n, lx)
		if err != nil {
			return err
		}
		last = cr.wall
		b.logCycle(n, cr)
		cs.add(cr)
		if b.traced() {
			if cs.traceCycles == 0 {
				b.compareFingerprints(ref.fp, cr.fp, 0)
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

// cycleResult is one measured cycle.
type cycleResult struct {
	from, to usage
	wall     float64
	fp       fingerprint
	bytes    int64

	rssMB      float64   // peak resident set
	requestsMS []float64 // the cycle's requests
}

// coldCycle runs one cold campaign cycle in a fresh directory, checks
// it, and removes the directory. lx collects per-layer figures on
// traced cycles.
func (b *bench) coldCycle(n int, lx *layerExtras) (*cycleResult, error) {
	dir, err := b.storeDir(fmt.Sprintf("cold-%d", n))
	if err != nil {
		return nil, err
	}
	// Start every cycle with the previous cycle's writes on disk, so
	// one cycle's writeback does not land in the next one's time.
	syscall.Sync()
	b.attempted++
	var (
		store *storage.Store
		sum   *campaign.Summary
		plan  *campaign.Plan
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
	err = b.cycleBody(store, func() (err error) {
		plan, sum, err = b.coldCampaign(store, lx)
		return err
	})
	b.endCycle(n)
	cr.to = b.usage()
	cr.rssMB = rss.done()
	if err != nil {
		return nil, err
	}
	cr.wall = cr.to.at.Sub(cr.from.at).Seconds()

	files, bytes, err := dirUsage(dir)
	if err != nil {
		return nil, err
	}
	cr.fp = fingerprint{plan: planDigest(plan), files: files}
	cr.bytes = bytes
	ok := b.check(len(plan.Cells) == coldCells && plan.RunCount() == coldCells,
		"campaign-cold cycle %d: planned %d of %d cells, want %d of %d", n, plan.RunCount(), len(plan.Cells), coldCells, coldCells)
	for _, o := range sum.Outcomes {
		ok = b.check(o.Err == nil && o.Passed, "campaign-cold cycle %d: cell %s not OK (err %v)", n, o.Cell.Label(), o.Err) && ok
	}
	want := b.coldRuns
	switch {
	case b.cfg.seed == 0:
		want = coldRuns
	case want == 0:
		want = max(sum.CampaignRuns(), coldCells)
		b.coldRuns = want
	}
	ok = b.check(sum.CampaignRuns() == want, "campaign-cold cycle %d: %d runs, want %d", n, sum.CampaignRuns(), want) && ok
	if !ok {
		b.failed++
	}
	if cr.fp.matrix, err = matrixJSON(sum.Matrix); err != nil {
		return nil, err
	}
	for i := 1; i <= statusReads; i++ {
		b.attempted++
		t0 := b.now()
		matrix, err := readStatus(dir)
		if err != nil {
			return nil, err
		}
		cr.requestsMS = append(cr.requestsMS, ms(b.now().Sub(t0)))
		if !b.check(matrix == cr.fp.matrix, "campaign-cold cycle %d: status read %d shows another matrix than the cycle recorded", n, i) {
			b.failed++
		}
	}
	lx.settle()
	return cr, removeFiles(dir)
}

// coldCampaign is a cold cycle's work on an open store: build the
// production-scale system, plan the matrix, store the plan, execute
// it, publish and compact if worthwhile.
func (b *bench) coldCampaign(store *storage.Store, lx *layerExtras) (plan *campaign.Plan, sum *campaign.Summary, err error) {
	var (
		cells  []campaign.Cell
		engine *campaign.Engine
	)
	if err := b.stage("core.system", func() error {
		sys, err := b.newSystem(store, false)
		if err != nil {
			return err
		}
		engine = campaign.New(sys, engineWorkers)
		lx.addSystem(sys)
		cells, err = matrixCells(sys)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := b.stage("campaign.plan", func() (err error) {
		plan, err = engine.Plan(cells)
		return err
	}); err != nil {
		return nil, nil, err
	}
	lx.addPlan(plan)
	if err := b.stage("campaign.plan_store", func() error { return plan.Store(store) }); err != nil {
		return nil, nil, err
	}
	if err := b.stage("campaign.execute", func() (err error) {
		sum, err = engine.RunPlanContext(context.Background(), plan)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if _, _, err := b.publish(store); err != nil {
		return nil, nil, err
	}
	return plan, sum, b.maintain(store)
}

// cycleBody runs body against an open store and then closes it as the
// storage.close stage, returning the first error.
func (b *bench) cycleBody(store *storage.Store, body func() error) error {
	err := body()
	if cerr := b.stage("storage.close", store.Close); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// beginCycle and endCycle bracket a cycle's root span.
func (b *bench) beginCycle(n int) {
	if b.tr != nil {
		b.tr.setCycle(n)
		b.cycleStart = b.now()
	}
}

func (b *bench) endCycle(n int) {
	if b.tr != nil {
		b.tr.record("cycle", levelRoot, b.cycleStart, b.now(), -1, n, 0)
	}
}

// untraced runs f with the timing wrappers off.
func (b *bench) untraced(f func() error) error {
	tr := b.tr
	b.tr = nil
	defer func() { b.tr = tr }()
	return f()
}
