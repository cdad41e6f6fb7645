package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/bookkeep"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/externals"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// title is the published status page title (spd's default).
const title = "sp-system validation status"

// compactJournalThreshold is cmd/spd's: a cycle ends with a compaction
// once the journal tail passes it.
const compactJournalThreshold = 256 << 10 // 256 KiB

// storeOptions is the flush policy of every store the benchmark
// writes: SyncNone, not the production SyncData. With fsync a cold
// cycle waited on the shared host's disk for half its time and moved
// by a factor of two between runs of the same code, and the write
// API's request latency moved with it; without, every file, byte and
// journal line is still written, only the device flush is left out.
var storeOptions = storage.Options{Sync: storage.SyncNone}

// openStore opens a writer store on dir, as storage.Open does but with
// storeOptions, behind the timing backend on traced runs.
func (b *bench) openStore(dir string) (*storage.Store, error) {
	if !b.traced() {
		return storage.OpenWith(dir, storeOptions)
	}
	inner, err := storage.OpenFSBackendWith(dir, storeOptions)
	if err != nil {
		return nil, err
	}
	return b.wrapStore(inner)
}

// openView opens the shared-lock read-only view spserve serves.
func (b *bench) openView(dir string) (*storage.Store, error) {
	if !b.traced() {
		return storage.OpenReadOnly(dir)
	}
	inner, err := storage.OpenReadOnlyFSBackend(dir)
	if err != nil {
		return nil, err
	}
	return b.wrapStore(inner)
}

// openRemote opens the write-enabled remote store an spd -worker uses.
func (b *bench) openRemote(url string, opts storage.RemoteOptions) (*storage.Store, error) {
	if !b.traced() {
		return storage.OpenRemoteWith(url, opts)
	}
	inner, err := storage.OpenRemoteBackend(url, opts)
	if err != nil {
		return nil, err
	}
	return b.wrapStore(inner)
}

func (b *bench) wrapStore(inner storage.Backend) (*storage.Store, error) {
	w, err := wrapBackend(inner, b.tr)
	if err != nil {
		//spvet:allow syncclose — the wrap failed; its error is the result and nothing was written
		inner.Close()
		return nil, err
	}
	return storage.NewStoreWith(w), nil
}

// newSystem builds an SPSystem over the store with every HERA
// experiment registered, each Definition.Seed offset by the run's seed
// (seed 0 is core.NewHERA exactly). Traced runs re-register the
// platform driver behind the timing driver under the same name.
func (b *bench) newSystem(store *storage.Store, quick bool) (*core.SPSystem, error) {
	sys := core.NewWith(store, platform.NewRegistry())
	for _, def := range experiments.All() {
		if quick {
			def = experiments.QuickScale(def)
		}
		def.Seed += b.cfg.seed
		if err := sys.RegisterExperiment(def); err != nil {
			return nil, err
		}
	}
	if b.traced() {
		inner, err := sys.Driver(valtest.DefaultDriverName)
		if err != nil {
			return nil, err
		}
		sys.RegisterDriver(&timedDriver{inner: inner, tr: b.tr})
	}
	return sys, nil
}

// matrixCells is spd's Figure 3 matrix: experiments × paper
// configurations × the standard externals set.
func matrixCells(sys *core.SPSystem) ([]campaign.Cell, error) {
	exts, err := experiments.StandardSet(sys.Catalogue)
	if err != nil {
		return nil, err
	}
	return campaign.MatrixPlan(sys.Experiments(), platform.OriginalConfig(),
		platform.PaperConfigs(), []*externals.Set{exts}), nil
}

// publish is sys.PublishReports split at its three calls, so each is
// its own stage: index the store, publish the site, save the segment.
func (b *bench) publish(store *storage.Store) (*bookkeep.Index, report.PublishStats, error) {
	var (
		x  *bookkeep.Index
		ps report.PublishStats
	)
	err := b.stage("bookkeep.index", func() (err error) {
		x, err = bookkeep.BuildIndex(store)
		return err
	})
	if err != nil {
		return nil, ps, err
	}
	if err := b.stage("report.publish", func() (err error) {
		ps, err = report.PublishSiteIndexed(store, x, title)
		return err
	}); err != nil {
		return nil, ps, err
	}
	if b.tr != nil {
		b.tr.add("report.publish.pages", float64(ps.Pages))
		b.tr.add("report.publish.written", float64(ps.Written))
	}
	return x, ps, b.stage("bookkeep.segment_save", func() error { return x.SaveSegment(store) })
}

// maintain is spd's compact-if-worthwhile tail.
func (b *bench) maintain(store *storage.Store) error {
	return b.stage("storage.maintain", func() error {
		pos, ok := store.Position()
		if !ok || pos.Offset < compactJournalThreshold {
			return nil
		}
		_, err := store.Compact()
		return err
	})
}

// planDigest fingerprints a plan's cells and decisions.
func planDigest(p *campaign.Plan) string {
	h := sha256.New()
	for _, pc := range p.Cells {
		fmt.Fprintf(h, "%s|%s|%s\n", pc.Cell.Label(), pc.Digest, pc.Decision)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// matrixJSON is the index matrix as JSON with each cell's latest run ID
// and timestamp cleared: which run ID lands on which cell depends on
// how two concurrent workers interleave, on every run alike.
func matrixJSON(cells []bookkeep.Cell) (string, error) {
	norm := make([]bookkeep.Cell, len(cells))
	for i, c := range cells {
		c.RunID, c.Timestamp = "", 0
		norm[i] = c
	}
	data, err := json.Marshal(norm)
	return string(data), err
}

// fingerprint is what the transparency check compares between an
// untraced and a traced cycle at the same seed.
type fingerprint struct {
	plan   string
	matrix string
	files  int
}

// compareFingerprints checks a traced cycle recorded what the untraced
// one did. The file counts may differ by at most slack: where two
// drainers race for the same lease, each lost claim leaves the blob it
// tried to bind, so the count varies between untraced cycles too.
func (b *bench) compareFingerprints(untraced, traced fingerprint, slack int) {
	b.check(untraced.plan == traced.plan, "transparency: traced plan digest %.12s differs from untraced %.12s", traced.plan, untraced.plan)
	b.check(untraced.matrix == traced.matrix, "transparency: traced index matrix differs from untraced")
	d := traced.files - untraced.files
	b.check(-slack <= d && d <= slack, "transparency: traced cycle added %d files, untraced %d (slack %d)", traced.files, untraced.files, slack)
}
