package main

import (
	"fmt"

	"repro/internal/storage"
)

// timedBackend is the timing storage.Backend: every call is a storage
// span, and the counters behind the storage.* per-layer metrics are
// taken at the same boundary. It carries only the core Backend methods;
// the optional capabilities are mixed in per inner type by wrapBackend,
// so a wrapped backend offers exactly the capabilities of the one it
// wraps.
type timedBackend struct {
	inner storage.Backend
	tr    *tracer
	local bool // inner is on local disk, so probing it for newness is free of side effects
}

func (b *timedBackend) PutBlob(hash string, data []byte) error {
	// Newness is probed outside the span, and only on local backends: on
	// the remote one the probe would be an extra request to the primary.
	fresh := b.local && !b.inner.HasBlob(hash)
	t0 := b.tr.now()
	err := b.inner.PutBlob(hash, data)
	b.tr.leaf("storage.put_blob", levelStorage, t0)
	b.tr.add("storage.put_blob.bytes", float64(len(data)))
	if fresh && err == nil {
		b.tr.add("storage.put_blob.new", 1)
	}
	return err
}

func (b *timedBackend) GetBlob(hash string) ([]byte, error) {
	t0 := b.tr.now()
	data, err := b.inner.GetBlob(hash)
	b.tr.leaf("storage.get_blob", levelStorage, t0)
	b.tr.add("storage.get_blob.bytes", float64(len(data)))
	return data, err
}

func (b *timedBackend) HasBlob(hash string) bool {
	t0 := b.tr.now()
	ok := b.inner.HasBlob(hash)
	b.tr.leaf("storage.has_blob", levelStorage, t0)
	return ok
}

func (b *timedBackend) ListBlobs() ([]string, error) {
	t0 := b.tr.now()
	hashes, err := b.inner.ListBlobs()
	b.tr.leaf("storage.list_blobs", levelStorage, t0)
	return hashes, err
}

func (b *timedBackend) BindName(name, hash string) error {
	t0 := b.tr.now()
	err := b.inner.BindName(name, hash)
	b.tr.leaf("storage.bind", levelStorage, t0)
	return err
}

func (b *timedBackend) ResolveName(name string) (string, bool) {
	t0 := b.tr.now()
	hash, ok := b.inner.ResolveName(name)
	b.tr.leaf("storage.resolve", levelStorage, t0)
	return hash, ok
}

func (b *timedBackend) ListNames() ([]string, error) {
	t0 := b.tr.now()
	names, err := b.inner.ListNames()
	b.tr.leaf("storage.list_names", levelStorage, t0)
	return names, err
}

func (b *timedBackend) Increment(name string) (int, error) {
	t0 := b.tr.now()
	n, err := b.inner.Increment(name)
	b.tr.leaf("storage.increment", levelStorage, t0)
	return n, err
}

func (b *timedBackend) Stats() (storage.Stats, error) {
	t0 := b.tr.now()
	st, err := b.inner.Stats()
	b.tr.leaf("storage.stats", levelStorage, t0)
	return st, err
}

func (b *timedBackend) Close() error { return b.inner.Close() }

// Optional capabilities, one forwarding mixin each.

type refreshFwd struct{ b *timedBackend }

func (f refreshFwd) Refresh() error {
	t0 := f.b.tr.now()
	err := f.b.inner.(storage.Refresher).Refresh()
	f.b.tr.leaf("storage.refresh", levelStorage, t0)
	return err
}

type compactFwd struct{ b *timedBackend }

func (f compactFwd) Compact() (storage.CompactStats, error) {
	t0 := f.b.tr.now()
	cs, err := f.b.inner.(storage.Compactor).Compact()
	f.b.tr.leaf("storage.compact", levelStorage, t0)
	return cs, err
}

type infoFwd struct{ b *timedBackend }

func (f infoFwd) Info() (storage.StoreInfo, error) {
	t0 := f.b.tr.now()
	info, err := f.b.inner.(storage.Informer).Info()
	f.b.tr.leaf("storage.info", levelStorage, t0)
	return info, err
}

type positionFwd struct{ b *timedBackend }

func (f positionFwd) Position() (storage.Position, bool) {
	t0 := f.b.tr.now()
	pos, ok := f.b.inner.(storage.Positioner).Position()
	f.b.tr.leaf("storage.position", levelStorage, t0)
	return pos, ok
}

type swapFwd struct{ b *timedBackend }

func (f swapFwd) CompareAndSwapName(name, oldHash, newHash string) (bool, error) {
	t0 := f.b.tr.now()
	won, err := f.b.inner.(storage.Swapper).CompareAndSwapName(name, oldHash, newHash)
	f.b.tr.leaf("storage.cas", levelStorage, t0)
	if won && err == nil {
		f.b.tr.add("storage.cas.won", 1)
	}
	return won, err
}

type dirFwd struct{ b *timedBackend }

func (f dirFwd) Dir() string { return f.b.inner.(dirBackend).Dir() }

type dirBackend interface{ Dir() string }

// Capability bits of a backend.
const (
	capRefresh = 1 << iota
	capCompact
	capInfo
	capPosition
	capSwap
	capDir
)

// capabilities is the set of optional interfaces b implements — the
// ones storage.Store and its API handler probe for.
func capabilities(b storage.Backend) int {
	caps := 0
	if _, ok := b.(storage.Refresher); ok {
		caps |= capRefresh
	}
	if _, ok := b.(storage.Compactor); ok {
		caps |= capCompact
	}
	if _, ok := b.(storage.Informer); ok {
		caps |= capInfo
	}
	if _, ok := b.(storage.Positioner); ok {
		caps |= capPosition
	}
	if _, ok := b.(storage.Swapper); ok {
		caps |= capSwap
	}
	if _, ok := b.(dirBackend); ok {
		caps |= capDir
	}
	return caps
}

// The wrapper shapes, one per backend the benchmark opens.
type (
	// writerTimed wraps the disk writer backend (openStore).
	writerTimed struct {
		*timedBackend
		compactFwd
		infoFwd
		positionFwd
		swapFwd
		dirFwd
	}
	// viewTimed wraps the read-only view (storage.OpenReadOnly).
	viewTimed struct {
		*timedBackend
		refreshFwd
		infoFwd
		positionFwd
		dirFwd
	}
	// remoteTimed wraps the HTTP backend (storage.OpenRemoteWith).
	remoteTimed struct {
		*timedBackend
		refreshFwd
		infoFwd
		positionFwd
		swapFwd
	}
)

// wrapBackend returns the timing wrapper for inner. It refuses a
// backend whose capability set none of the wrapper shapes reproduces,
// and checks the wrapper it returns forwards exactly inner's set.
func wrapBackend(inner storage.Backend, tr *tracer) (storage.Backend, error) {
	core := &timedBackend{inner: inner, tr: tr, local: capabilities(inner)&capDir != 0}
	var w storage.Backend
	switch capabilities(inner) {
	case capabilities(&writerTimed{}):
		w = &writerTimed{core, compactFwd{core}, infoFwd{core}, positionFwd{core}, swapFwd{core}, dirFwd{core}}
	case capabilities(&viewTimed{}):
		w = &viewTimed{core, refreshFwd{core}, infoFwd{core}, positionFwd{core}, dirFwd{core}}
	case capabilities(&remoteTimed{}):
		w = &remoteTimed{core, refreshFwd{core}, infoFwd{core}, positionFwd{core}, swapFwd{core}}
	default:
		return nil, fmt.Errorf("no timing wrapper reproduces the capabilities of %T", inner)
	}
	if got, want := capabilities(w), capabilities(inner); got != want {
		return nil, fmt.Errorf("timing wrapper for %T forwards capabilities %b, want %b", inner, got, want)
	}
	return w, nil
}
