package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/cron"
)

// config is the command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// engineWorkers is every campaign engine's worker count (see the
// package comment).
const engineWorkers = 1

// workload is one workload's driver and the GOMAXPROCS it runs with
// (see the package comment).
type workload struct {
	run   func(*bench) error
	procs int
}

// workloads maps each workload name to its workload.
var workloads = map[string]workload{
	"campaign-cold": {runCampaignCold, 1},
	"serve-live":    {runServeLive, 2},
	"worker-drain":  {runWorkerDrain, 2},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// bench is one run's state: settings, clock, tracer and the figures the
// workload reports.
type bench struct {
	cfg  config
	now  func() time.Time
	tr   *tracer // nil on untraced runs
	dir  string  // this run's working directory, removed at exit
	work time.Duration

	cycleStart time.Time // root span start of the traced cycle in progress
	coldRuns   int       // runs the first cold cycle recorded, at seeds other than 0

	checkMu           sync.Mutex // serializes checks made by concurrent senders
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func run(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(wl.procs)
	b := &bench{
		cfg:     cfg,
		now:     cron.Wall(),
		work:    time.Duration(cfg.seconds * float64(time.Second)),
		metrics: make(map[string]metric),
	}
	if cfg.trace == 1 {
		b.tr = newTracer(b.now)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	if err := b.removeStaleRuns(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	spreadSubdirs(dir)
	err = wl.run(b)
	if rerr := removeFiles(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		if err := b.tr.write(cfg); err != nil {
			return nil, err
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "spbench: check failed:", p)
	}
	if b.attempted < 1 {
		return nil, fmt.Errorf("%s attempted nothing in %v", cfg.workload, b.work)
	}
	return &result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// ext4 inode flag ioctls and the flag that marks a directory as the top
// of a directory hierarchy (FS_TOPDIR_FL, what `chattr +T` sets).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// spreadSubdirs marks dir so that ext4 places each directory created
// in it by the Orlov allocator's top-level rule, in a block group
// chosen from a hash of its name, instead of next to dir. Every store
// the run builds is a new directory in the run's directory, and ext4
// without a journal skips the inodes freed in the last minute when it
// allocates one, scanning past each of them: a store placed where the
// previous cycle's or run's deleted store was pays for that clean-up,
// about half a millisecond a file on the host the sizes were chosen
// on, and the cycle then measures the clean-up instead of the program.
// storeDir gives each store a name of its own, so the hashes, and the
// groups, differ, and removeFiles keeps a deleted store's directories
// so that its group is not the emptiest one. On other file systems the
// flag is refused and nothing changes.
func spreadSubdirs(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close() //spvet:allow syncclose — a directory opened only for its flags
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= fsTopdirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags))) // best effort: see above
}

// storeDir creates a directory for one store in the run's directory:
// prefix plus a random suffix (see spreadSubdirs).
func (b *bench) storeDir(prefix string) (string, error) {
	return os.MkdirTemp(b.dir, prefix+"-")
}

// removeFiles deletes the regular files under dir and keeps its
// directories. A deleted store's directories keep ext4 from choosing
// its block group, whose freed inodes it would scan past, for the
// next store (see spreadSubdirs); removeStaleRuns deletes them once
// those inodes are no longer recent.
func removeFiles(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Remove(path)
	})
}

// staleAfter is how long the emptied directories of an earlier run
// are kept: well past the minute for which ext4 treats a freed inode
// as recent.
const staleAfter = 3 * time.Minute

// removeStaleRuns deletes the directories earlier runs left in the
// workdir once they are staleAfter old.
func (b *bench) removeStaleRuns() error {
	entries, err := os.ReadDir(workdir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		if b.now().Sub(info.ModTime()) > staleAfter {
			if err := os.RemoveAll(filepath.Join(workdir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// check records a failed output check; the result then reads
// correct=false.
func (b *bench) check(ok bool, format string, args ...interface{}) bool {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// set records one metric.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// traced reports whether this run installs the timing wrappers.
func (b *bench) traced() bool { return b.tr != nil }

// since is the seconds elapsed since t0 on the benchmark clock.
func (b *bench) since(t0 time.Time) float64 { return b.now().Sub(t0).Seconds() }

// medianSetup runs build n times and returns the median set-up time
// with the fixture of the last run; every earlier fixture is torn down.
func medianSetup[F any](b *bench, n int, build func(i int) (F, error), teardown func(F) error) (F, float64, error) {
	var (
		fx    F
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(fx); err != nil {
				return fx, 0, err
			}
		}
		t0 := b.now()
		var err error
		fx, err = build(i)
		if err != nil {
			return fx, 0, err
		}
		times = append(times, b.since(t0))
	}
	return fx, median(times), nil
}

// usage is a resource reading at a cycle boundary.
type usage struct {
	at    time.Time
	cpu   float64 // process user+sys seconds
	sys   float64 // process sys seconds
	alloc uint64  // cumulative heap bytes allocated
}

func (b *bench) usage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		at:    b.now(),
		cpu:   tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		sys:   tvSeconds(ru.Stime),
		alloc: totalAlloc(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// rssEvery is how often a cycle's resident set is sampled.
const rssEvery = 5 * time.Millisecond

// rssSampler keeps the peak resident set of the process while it runs.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

// sampleRSS starts sampling the resident set. A cycle's own peak is
// steadier than the process's lifetime peak, which one cycle where the
// garbage collector ran late decides.
func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64)}
	go func() {
		sleep := cron.Sleeper()
		peak := residentMB()
		for {
			select {
			case <-s.stop:
				s.peak <- max(peak, residentMB())
				return
			default:
			}
			sleep(rssEvery)
			peak = max(peak, residentMB())
		}
	}()
	return s
}

// done stops sampling and returns the peak in MiB; where the resident
// set cannot be read, the process's lifetime peak.
func (s *rssSampler) done() float64 {
	close(s.stop)
	if peak := <-s.peak; peak > 0 {
		return peak
	}
	return rssPeakMB()
}

// residentMB is the process's resident set now, from /proc/self/statm;
// 0 where that cannot be read.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeakMB is the process's peak resident set so far.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// cycleStats accumulates the end-to-end figures of a cycle workload.
type cycleStats struct {
	walls       []float64 // seconds per cycle
	cpus        []float64 // CPU seconds per cycle
	alloc       float64   // bytes
	files       float64
	bytes       float64
	requestsMS  []float64
	rssMB       []float64 // peak resident set per cycle
	traceCycles int
}

// another reports whether a cycle loop starts another cycle: always a
// first one, then while one more cycle as long as the last would end
// less than half a cycle past the deadline, so a run of long cycles
// overruns its measuring time by at most half a cycle.
func (b *bench) another(deadline time.Time, last float64) bool {
	return last == 0 || !b.now().Add(time.Duration(last/2*float64(time.Second))).After(deadline)
}

// logCycle prints one progress line per cycle to standard error.
func (b *bench) logCycle(n int, cr *cycleResult) {
	fmt.Fprintf(os.Stderr, "spbench: %s cycle %d: %.3f s, %.3f s cpu (%.3f s sys), %d files\n",
		b.cfg.workload, n, cr.wall, cr.to.cpu-cr.from.cpu, cr.to.sys-cr.from.sys, cr.fp.files)
}

// add records one measured cycle.
func (c *cycleStats) add(cr *cycleResult) {
	from, to := cr.from, cr.to
	c.walls = append(c.walls, to.at.Sub(from.at).Seconds())
	c.rssMB = append(c.rssMB, cr.rssMB)
	c.requestsMS = append(c.requestsMS, cr.requestsMS...)
	c.cpus = append(c.cpus, to.cpu-from.cpu)
	c.alloc += float64(to.alloc - from.alloc)
	c.files += float64(cr.fp.files)
	c.bytes += float64(cr.bytes)
}

// report sets the end-to-end metrics shared by every workload.
func (b *bench) report(c *cycleStats, setup float64) {
	n := float64(len(c.walls))
	b.set("setup_s", "s", setup)
	b.set("cycle_p50_s", "s", median(c.walls))
	b.set("cycle_cpu_s", "s", median(c.cpus))
	b.set("alloc_mb_per_cycle", "MiB", c.alloc/n/(1<<20))
	b.set("disk_files_per_cycle", "count", c.files/n)
	b.set("disk_mb_per_cycle", "MiB", c.bytes/n/(1<<20))
	b.set("request_p50_ms", "ms", median(c.requestsMS))
	b.set("rss_peak_mb", "MiB", median(c.rssMB))
}

// median is the middle value (the mean of the middle two for an even
// count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank q-quantile; NaN for no values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
