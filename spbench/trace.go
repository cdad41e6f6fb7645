package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span levels: a cycle (or a served request) is the root; stages are
// the calls the benchmark makes into a layer; inner spans are what the
// wrappers see inside a stage (driver calls, handler calls, worker
// phases); storage calls are innermost.
const (
	levelRoot = iota
	levelStage
	levelInner
	levelStorage
)

// span is one timed interval. Parent is resolved when the trace is
// partitioned (see resolveParentsLocked).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	ID     int     `json:"id"` // cycle number or request id
	// G is the goroutine a wrapper span was recorded on; 0 marks the
	// benchmark's own roots and stages, which any goroutine's spans
	// may nest in.
	G     int64 `json:"goroutine,omitempty"`
	level int
}

// tracer keeps spans in memory and counts at the same boundaries.
type tracer struct {
	now   func() time.Time
	epoch time.Time

	mu     sync.Mutex
	spans  []span             // guarded by mu
	calls  map[string]int     // guarded by mu
	secs   map[string]float64 // guarded by mu
	counts map[string]float64 // guarded by mu
	cycle  int                // guarded by mu; id stamped on new spans
}

// maxSpans bounds the in-memory trace; counters keep counting past it.
const maxSpans = 1 << 20

func newTracer(now func() time.Time) *tracer {
	return &tracer{
		now:    now,
		epoch:  now(),
		calls:  make(map[string]int),
		secs:   make(map[string]float64),
		counts: make(map[string]float64),
	}
}

func (t *tracer) offset(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// record adds a finished span recorded on goroutine g (0: shared);
// past maxSpans it only counts it. A negative id stamps the current
// cycle's.
func (t *tracer) record(name string, level int, start, end time.Time, parent, id int, g int64) {
	s := span{Name: name, Start: t.offset(start), End: t.offset(end), Parent: parent, ID: id, G: g, level: level}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls[name]++
	t.secs[name] += s.End - s.Start
	if id < 0 {
		s.ID = t.cycle
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// leaf records a wrapper-observed span begun at start on the calling
// goroutine.
func (t *tracer) leaf(name string, level int, start time.Time) {
	t.record(name, level, start, t.now(), -2, -1, goid())
}

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 17 [running]:").
func goid() int64 {
	var buf [32]byte
	s := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(string(s), 10, 64) // the header always carries the id
	return id
}

// add bumps a named counter.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// setCycle stamps id on spans recorded from now on.
func (t *tracer) setCycle(id int) {
	t.mu.Lock()
	t.cycle = id
	t.mu.Unlock()
}

// stats returns a span name's call count and summed seconds.
func (t *tracer) stats(name string) (int, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[name], t.secs[name]
}

// count returns a counter.
func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// durations returns the durations (seconds) of every stored span with
// the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// stage times f as a stage of the current cycle; untraced runs call f
// directly.
func (b *bench) stage(name string, f func() error) error {
	if b.tr == nil {
		return f()
	}
	t0 := b.now()
	err := f()
	b.tr.record(name, levelStage, t0, b.now(), -2, -1, 0)
	return err
}

// inner times f as an inner span (a concurrent phase inside a stage).
func (b *bench) inner(name string, f func() error) error {
	if b.tr == nil {
		return f()
	}
	t0 := b.now()
	err := f()
	b.tr.leaf(name, levelInner, t0)
	return err
}

// breakdown is the partition of root time into named self times.
type breakdown struct {
	total float64            // seconds covered by at least one root
	self  map[string]float64 // seconds per span name
	roots int                // root spans: cycles, or served requests
}

// partition resolves parents and splits every instant covered by a
// root among the spans active then that have no active child: with two
// workers, one in a test body and one in a blob write, each gets half.
// A span's self time is its share of these instants; time where a root
// has no active child is the root's own, unaccounted, time.
func (t *tracer) partition() breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolveParentsLocked()
	type event struct {
		at    float64
		start bool
		idx   int
	}
	events := make([]event, 0, 2*len(t.spans))
	for i, s := range t.spans {
		if s.End >= s.Start {
			events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		}
	}
	// At equal times, starts precede ends, parents start before their
	// children and end after them.
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.start != b.start {
			return a.start
		}
		la, lb := t.spans[a.idx].level, t.spans[b.idx].level
		if a.start {
			return la < lb
		}
		return la > lb
	})
	var (
		children = make([]int, len(t.spans)) // active children per span
		active   = make([]bool, len(t.spans))
		leaves   = make(map[string]int) // active childless spans by name
		nLeaves  int
		roots    int
		bd       = breakdown{self: make(map[string]float64)}
		prev     float64
	)
	leaf := func(i, d int) {
		leaves[t.spans[i].Name] += d
		nLeaves += d
		if leaves[t.spans[i].Name] == 0 {
			delete(leaves, t.spans[i].Name)
		}
	}
	for _, e := range events {
		if dt := e.at - prev; dt > 0 && roots > 0 && nLeaves > 0 {
			bd.total += dt
			for name, n := range leaves {
				bd.self[name] += dt * float64(n) / float64(nLeaves)
			}
		}
		prev = e.at
		s := t.spans[e.idx]
		p := s.Parent
		if p >= 0 && !active[p] {
			p = -1
		}
		if e.start {
			active[e.idx] = true
			leaf(e.idx, +1)
			if p >= 0 {
				if children[p] == 0 {
					leaf(p, -1)
				}
				children[p]++
			}
			if s.level == levelRoot {
				roots++
				bd.roots++
			}
			continue
		}
		active[e.idx] = false
		if children[e.idx] == 0 {
			leaf(e.idx, -1)
		}
		if p >= 0 {
			children[p]--
			if children[p] == 0 {
				leaf(p, +1)
			}
		}
		if s.level == levelRoot {
			roots--
		}
	}
	return bd
}

// resolveParentsLocked gives every unresolved span the deepest
// lower-level span that contains its interval and that it belongs to:
// a root only when their ids match, any other span only when both were
// recorded on the same goroutine or it is one of the benchmark's own
// stages (goroutine 0), the latest-starting one on ties. A storage call
// one engine worker makes while the other is in a test body thus nests
// in the enclosing stage, beside the test body, not inside it. The
// caller holds t.mu.
func (t *tracer) resolveParentsLocked() {
	type group struct {
		level int
		key   int64 // a root's id, otherwise the goroutine
	}
	keyOf := func(level int, s *span) group {
		if level == levelRoot {
			return group{levelRoot, int64(s.ID)}
		}
		return group{level, s.G}
	}
	groups := make(map[group][]int)
	for i := range t.spans {
		k := keyOf(t.spans[i].level, &t.spans[i])
		groups[k] = append(groups[k], i)
	}
	for _, idx := range groups {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].Start < t.spans[idx[b]].Start })
	}
	// container is the latest-starting span of idx containing s, or -1.
	container := func(idx []int, s *span) int {
		k := sort.Search(len(idx), func(k int) bool { return t.spans[idx[k]].Start > s.Start }) - 1
		for ; k >= 0; k-- {
			c := t.spans[idx[k]]
			if c.End >= s.End {
				return idx[k]
			}
			if s.Start-c.Start > 60 { // no container lasts this long
				break
			}
		}
		return -1
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != -2 {
			continue
		}
		s.Parent = -1
		for l := s.level - 1; l >= levelRoot && s.Parent == -1; l-- {
			s.Parent = container(groups[keyOf(l, s)], s)
			if l == levelRoot || s.G == 0 {
				continue
			}
			if shared := container(groups[group{l, 0}], s); shared >= 0 &&
				(s.Parent < 0 || t.spans[shared].Start > t.spans[s.Parent].Start) {
				s.Parent = shared
			}
		}
	}
}

// layerOf is a span name's layer (the module it times).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// table prints where a cycle's time goes: self time and share per
// layer, plus the span names inside each layer.
func (bd breakdown) table(unit string) string {
	n := max(bd.roots, 1)
	var sb strings.Builder
	layers := make(map[string]float64)
	for name, s := range bd.self {
		layers[layerOf(name)] += s
	}
	names := make([]string, 0, len(bd.self))
	for name := range bd.self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return bd.self[names[i]] > bd.self[names[j]] })
	order := make([]string, 0, len(layers))
	for l := range layers {
		order = append(order, l)
	}
	sort.Slice(order, func(i, j int) bool { return layers[order[i]] > layers[order[j]] })
	fmt.Fprintf(&sb, "where a %s's time goes (%d %ss, %.4f s each)\n", unit, n, unit, bd.total/float64(n))
	fmt.Fprintf(&sb, "  %-34s %12s %8s\n", "layer / span", "self s/"+unit, "share")
	for _, l := range order {
		fmt.Fprintf(&sb, "  %-34s %12.4f %7.1f%%\n", l, layers[l]/float64(n), 100*layers[l]/bd.total)
		for _, name := range names {
			if layerOf(name) == l && name != l {
				fmt.Fprintf(&sb, "    %-32s %12.4f %7.1f%%\n", name, bd.self[name]/float64(n), 100*bd.self[name]/bd.total)
			}
		}
	}
	return sb.String()
}

// write dumps every span as one JSON line into the workdir's traces/
// directory.
func (t *tracer) write(cfg config) (err error) {
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	//spvet:allow storewrite — the span dump is the benchmark's own output file, not a store
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// totalAlloc is the cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
