package main

import (
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/core"
)

// layerExtras collects the per-layer figures that come from the
// program's own counters rather than from spans.
// Untraced runs pass a nil *layerExtras, which collects nothing.
type layerExtras struct {
	pending   []*core.SPSystem // the current cycle's systems
	dedupHits int64
	planCells int
	planRuns  int
	queue     campaign.QueueStats
}

func (lx *layerExtras) addSystem(sys *core.SPSystem) {
	if lx != nil {
		lx.pending = append(lx.pending, sys)
	}
}

// newExtras returns the collector for a traced run, nil otherwise.
func (b *bench) newExtras() *layerExtras {
	if b.traced() {
		return &layerExtras{}
	}
	return nil
}

// settle reads the finished cycle's build counters and lets its
// systems go, so a run holds one cycle's systems at a time.
func (lx *layerExtras) settle() {
	if lx == nil {
		return
	}
	for _, sys := range lx.pending {
		lx.dedupHits += sys.Builder.DedupHits()
	}
	lx.pending = nil
}

func (lx *layerExtras) addPlan(p *campaign.Plan) {
	if lx != nil {
		lx.planCells += len(p.Cells)
		lx.planRuns += p.RunCount()
	}
}

func (lx *layerExtras) addQueue(st *campaign.QueueStats) {
	if lx != nil && st != nil {
		lx.queue.Executed += st.Executed
		lx.queue.Stolen += st.Stolen
		lx.queue.PeerDone += st.PeerDone
		lx.queue.PlanSkips += st.PlanSkips
		lx.queue.Lost += st.Lost
		lx.queue.Waits += st.Waits
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics sets every per-layer metric from the trace: counts and
// busy seconds per cycle of n traced cycles, ratios over the whole run,
// and the trace's own health figures. tracedWall and untracedWall are
// the median cycle times with and without the wrappers. Metrics a
// workload never exercises read 0; serve-live overwrites the serve.*
// ones afterwards.
func (b *bench) layerMetrics(n int, tracedWall, untracedWall float64, lx *layerExtras) {
	tr := b.tr
	per := func(v float64) float64 { return v / float64(n) }
	calls := func(name string) float64 { c, _ := tr.stats(name); return per(float64(c)) }
	secs := func(name string) float64 { _, s := tr.stats(name); return per(s) }
	mib := func(counter string) float64 { return per(tr.count(counter)) / (1 << 20) }

	for _, name := range []string{"put_blob", "bind", "increment", "get_blob", "refresh", "compact", "cas"} {
		b.set("storage."+name+".calls", "count", calls("storage."+name))
		b.set("storage."+name+".s", "s", secs("storage."+name))
	}
	b.set("storage.open.s", "s", secs("storage.open"))
	b.set("storage.close.s", "s", secs("storage.close"))
	b.set("storage.put_blob.mb", "MiB", mib("storage.put_blob.bytes"))
	b.set("storage.get_blob.mb", "MiB", mib("storage.get_blob.bytes"))
	puts, _ := tr.stats("storage.put_blob")
	b.set("storage.put_blob.new_ratio", "ratio", ratio(tr.count("storage.put_blob.new"), float64(puts)))
	binds, _ := tr.stats("storage.bind")
	incs, _ := tr.stats("storage.increment")
	cas, _ := tr.stats("storage.cas")
	b.set("storage.journal.counter_share", "ratio", ratio(float64(incs), float64(binds+incs+cas)))
	b.set("storage.cas.won_ratio", "ratio", ratio(tr.count("storage.cas.won"), float64(cas)))

	api := tr.durations("storage.api")
	b.set("storage.api.requests", "count", calls("storage.api"))
	b.set("storage.api.s", "s", secs("storage.api"))
	b.set("storage.api.p99_ms", "ms", 1000*percentile(api, 0.99))
	for _, c := range []string{"errors", "blob_puts", "name_posts", "counter_posts"} {
		b.set("storage.api."+c, "count", per(tr.count("storage.api."+c)))
	}

	b.set("core.system.s", "s", secs("core.system"))
	b.set("campaign.plan.s", "s", secs("campaign.plan"))
	b.set("campaign.plan_store.s", "s", secs("campaign.plan_store"))
	b.set("campaign.execute.s", "s", secs("campaign.execute"))
	if lx == nil {
		lx = &layerExtras{}
	}
	b.set("campaign.plan.stale_ratio", "ratio", ratio(float64(lx.planRuns), float64(lx.planCells)))
	b.set("campaign.queue.claims", "count", per(tr.count("campaign.queue.claims")))
	b.set("campaign.queue.waits", "count", per(float64(lx.queue.Waits)))
	b.set("campaign.queue.wait_s", "s", per(tr.count("campaign.queue.wait_s")))
	b.set("campaign.queue.peer_done", "count", per(float64(lx.queue.PeerDone)))
	b.set("campaign.queue.stolen", "count", per(float64(lx.queue.Stolen)))
	b.set("buildsys.provision.calls", "count", calls("buildsys.provision"))
	b.set("buildsys.provision.s", "s", secs("buildsys.provision"))
	b.set("buildsys.dedup_hits", "count", per(float64(lx.dedupHits)))
	b.set("valtest.run_test.calls", "count", calls("valtest.run_test"))
	b.set("valtest.run_test.s", "s", secs("valtest.run_test"))
	b.set("valtest.collect.s", "s", secs("valtest.collect"))
	b.set("bookkeep.index.s", "s", secs("bookkeep.index"))
	b.set("bookkeep.segment_save.s", "s", secs("bookkeep.segment_save"))
	b.set("report.publish.s", "s", secs("report.publish"))
	b.set("report.publish.written_ratio", "ratio", ratio(tr.count("report.publish.written"), tr.count("report.publish.pages")))

	for _, name := range servePerLayer {
		if _, ok := b.metrics[name.name]; !ok {
			b.set(name.name, name.unit, 0)
		}
	}

	bd := tr.partition()
	root := "cycle"
	if b.cfg.workload == "serve-live" {
		root = "request"
	}
	b.set("campaign.execute.self_s", "s", per(bd.self["campaign.execute"]))
	b.set("trace.unaccounted_share", "ratio", ratio(bd.self[root], bd.total))
	b.set("trace.overhead_share", "ratio", ratio(tracedWall-untracedWall, untracedWall))
	fmt.Fprintf(os.Stderr, "spbench %s seed %d: %s", b.cfg.workload, b.cfg.seed, bd.table(root))
}

// servePerLayer names the serve.* per-layer metrics, which only
// serve-live measures.
var servePerLayer = []struct{ name, unit string }{
	{"serve.handler.s", "s"},
	{"serve.handler.p99_ms", "ms"},
	{"serve.wait.p99_ms", "ms"},
	{"serve.dashboard.p50_ms", "ms"},
	{"serve.dashboard.p99_ms", "ms"},
	{"serve.browse.p50_ms", "ms"},
	{"serve.browse.p99_ms", "ms"},
	{"serve.revalidate.p50_ms", "ms"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.renders", "count"},
	{"serve.not_modified", "count"},
	{"serve.index_queries", "count"},
	{"serve.gen.late_p99_ms", "ms"},
	{"serve.writer.appends", "count"},
	{"serve.writer.append_p50_ms", "ms"},
}
