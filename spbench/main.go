// Command spbench is the sp-system's outside-in benchmark. It drives
// three workloads through the same public calls `spd`, `spd -worker`
// and `spserve` make, checks every output, and prints one JSON result
// line:
//
//	bash spbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds this package from source into .bench_build/ and runs it
// from the repository root; every store, trace and build artifact stays
// under .bench_build/. A run deletes each store's files once done with
// it, or at its end where deleting would land in a timed window, but
// keeps the emptied directories for three minutes (see spreadSubdirs). With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 the benchmark installs its timing wrappers
// (a storage.Backend, a valtest.Driver re-registered under the platform
// driver's name, http.Handlers around the status server and the write
// API, and the QueueOptions Now/Sleep/OnEvent seams), reports the
// per-layer metrics, prints a "where a cycle's time goes" table to
// standard error and writes every span to .bench_build/traces/.
//
// # Workloads
//
// campaign-cold: one spd primary cycle per iteration, from an empty
// disk store at production scale (quick=false): Plan of the Figure 3
// matrix (15 cells), RunPlanContext with one worker, publish,
// compact-if-past-256 KiB, Close. It is write- and execute-heavy: builds, test execution, blob
// writes and counter mints dominate, so write-path changes show here.
// Its requests are the status reads an operator makes once the cycle
// has closed the store: three per cycle, each a read-only open of the
// store and an index build, as spserve and `spsys matrix` answer them.
//
// serve-live: one serve.Server (RefreshEvery 1 s, default render
// cache) on a loopback listener over a read-only view of a 10000-run
// archive, while a writer in the same process appends one synthesized
// run every 100 ms. An open-loop generator with 2 connections sends 60
// requests per second, well under saturation on two cores, timed from
// when each was due: 50% dashboard polls (/, /api/v1/matrix,
// /api/v1/runs?limit=100), 20% revalidations with the last ETag seen,
// 30% browsing (/runs/{id}, /diff/{id}, /api/v1/blob/{hash}) with ids
// uniform over the archive, all with Accept-Encoding: gzip. It is the
// only workload that exercises serve, render and the render cache; the
// dashboard set fits the cache, the browse set does not, and the
// writer's appends invalidate position-keyed entries. Its cycle is one
// writer append, the write the server has to pick up; the per-cycle
// costs cover everything the process did, spread over the appends.
//
// worker-drain: the quick-scale Figure 3 plan on a fresh disk primary
// that serves the write-enabled store API on loopback and drains
// through Engine.DrainPlan, as `spd -listen` does, beside one `spd
// -worker` equivalent draining over storage.OpenRemoteWith: 2 drainers
// with the default Poll and TTL, one engine worker each. It is the only workload that uses the
// lease layer, the remote backend and the write API, and it measures
// the idle Poll waits. Its requests are the worker's HTTP calls.
//
// The nightly archive cycle (a cron-fired no-change spd cycle over a
// synthesized archive) is not a workload: on the shared two-core host
// the sizes were chosen on, its short CPU-bound cycles spread by a
// third to a half between runs, more than the largest regression bound
// allows, and its layers (open, index, segment, publish, compaction)
// are measured on campaign-cold and worker-drain too. For the same
// reason tail latency is reported per layer (serve.*.p99_ms,
// storage.api.p99_ms) rather than as an end-to-end request p99.
//
// # Settings
//
// Every store is written with SyncNone rather than the production
// SyncData: on the shared host the sizes were chosen on, fsync waits
// made a cold cycle take 4.5 to 12 s and the write API's latency move
// by a third between runs of the same code, which measured the host's
// disk rather than the program. Every file, byte and journal line is
// still written; only the device flush is left out.
//
// Every campaign engine runs one worker, not spd's default of 2, and
// GOMAXPROCS is pinned per workload, so the figures do not move with
// the host's core count: 1 on campaign-cold, 2 on worker-drain and
// serve-live, whose drainers, server, writer and clients run side by
// side as they would on the two-core host the sizes were chosen on.
// There, with 2 workers a cold cycle ran no faster (2.6 against 2.8 s)
// but burnt 0.8 s more CPU, most of it the kernel's, and some cycles
// paid 2.5 s more again; with 2 workers per drainer a worker-drain
// cycle took 4.4 s instead of 2.8 s and the worker's request latency
// moved by up to a quarter between runs of the same code, as its
// requests queued behind four busy workers. Both measured the host's
// scheduler rather than the program.
//
// The --seed argument offsets every experiment's Definition.Seed (0
// keeps the experiments.All seeds, so those systems equal
// core.NewHERA's) and picks serve-live's routes, ids and arrival
// jitter. Set-up is repeated and its median reported (three warm-up
// cycles on campaign-cold, 100 times on worker-drain, whose set-up
// takes milliseconds, three times on serve-live, whose set-up
// synthesizes the archive), so that work moved into set-up shows
// without one slow set-up deciding the figure.
//
// cycle_cpu_s is the median over cycles of each cycle's CPU time.
// There is no cycle_mean_s: campaign-cold and worker-drain cycles each
// start from an empty store and a serve-live cycle is one append, so
// no workload has periodic work for a mean to show, and the mean of a
// run's cycles moved only with the host's stalls. rss_peak_mb is the
// median over cycles of each cycle's peak resident
// set, sampled every 5 ms (serve-live: the peak of its load window).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// workdir holds every store the benchmark builds and its trace output,
// relative to the repository root the benchmark runs from.
const workdir = ".bench_build"

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 0, "seed offsetting every experiment's Definition.Seed and serve-live's request choices")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the measured phase runs")
	flag.IntVar(&cfg.trace, "trace", 0, "1: install the timing wrappers and report per-layer metrics")
	flag.Parse()

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
