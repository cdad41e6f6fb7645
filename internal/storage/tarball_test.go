package storage

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTarballRoundTrip(t *testing.T) {
	files := map[string][]byte{
		"bin/h1reco":    []byte("ELF...binary"),
		"lib/libh1.a":   bytes.Repeat([]byte{0xAB}, 4096),
		"etc/VERSION":   []byte("rev 42"),
		"share/doc.txt": nil,
	}
	data, err := PackTarball(files)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnpackTarball(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(files) {
		t.Fatalf("entries = %d, want %d", len(got), len(files))
	}
	for name, want := range files {
		if !bytes.Equal(got[name], want) {
			t.Errorf("entry %q content mismatch", name)
		}
	}
}

func TestTarballDeterministic(t *testing.T) {
	files := map[string][]byte{"b": []byte("2"), "a": []byte("1"), "c": []byte("3")}
	d1, err := PackTarball(files)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := PackTarball(files)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("tarballs of equal input differ — breaks storage deduplication")
	}
}

func TestTarballRejectsEmptyName(t *testing.T) {
	if _, err := PackTarball(map[string][]byte{"": []byte("x")}); err == nil {
		t.Fatal("empty entry name accepted")
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	if _, err := UnpackTarball([]byte("not a tarball")); err == nil {
		t.Fatal("garbage accepted as tarball")
	}
}

func TestTarballEmptyArchive(t *testing.T) {
	data, err := PackTarball(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnpackTarball(data)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty archive round trip = %v, %v", got, err)
	}
}

func TestTarballProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		files := map[string][]byte{"a.dat": a, "sub/b.dat": b}
		packed, err := PackTarball(files)
		if err != nil {
			return false
		}
		got, err := UnpackTarball(packed)
		return err == nil && bytes.Equal(got["a.dat"], a) && bytes.Equal(got["sub/b.dat"], b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tarballFixture is an artifact-shaped file map like the ones the build
// system packs: a manifest and one 32-byte pseudo object per unit. salt
// makes maps of the same shape differ.
func tarballFixture(units int, salt string) map[string][]byte {
	files := map[string][]byte{
		"MANIFEST": []byte("package: " + salt + "\nconfig: SL6/64bit gcc4.4\n"),
	}
	for i := 0; i < units; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s/unit%02d", salt, i)))
		files[fmt.Sprintf("obj/unit%02d.o", i)] = sum[:]
	}
	return files
}

// packFresh is the reference archive: PackTarball's tar stream through a
// newly constructed BestSpeed writer.
func packFresh(t *testing.T, files map[string][]byte) []byte {
	t.Helper()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	tw := tar.NewWriter(gz)
	for _, name := range names {
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(files[name])), ModTime: tarEpoch}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(files[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gzipFresh(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestTarballGoldenDigest pins the archive bytes of a fixed file map.
// The digest was computed with a writer built per call; artifact hashes,
// and with them every stored build and golden campaign digest, depend on
// these bytes staying the same.
func TestTarballGoldenDigest(t *testing.T) {
	const want = "d4bf90ba6f961dbc5132dd85c2eaea3225522b35ea58ab6268f07dd02f76df27"
	data, err := PackTarball(tarballFixture(12, "h1reco"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != want {
		t.Fatalf("PackTarball digest = %s, want %s", got, want)
	}
}

// TestTarballPooledMatchesFresh interleaves maps through the pool, so a
// reused writer follows a different archive each time, and checks every
// pack against a fresh writer's bytes.
func TestTarballPooledMatchesFresh(t *testing.T) {
	a, b := tarballFixture(12, "h1reco"), tarballFixture(3, "zeusana")
	b["lib/libzeus.a"] = bytes.Repeat([]byte("zeus"), 4096)
	for i, files := range []map[string][]byte{a, b, a, b, a} {
		got, err := PackTarball(files)
		if err != nil {
			t.Fatal(err)
		}
		if want := packFresh(t, files); sha(got) != sha(want) {
			t.Fatalf("pack %d: pooled digest %s, fresh writer %s", i, sha(got), sha(want))
		}
	}
}

func TestGzipBytesPooledMatchesFresh(t *testing.T) {
	a := []byte(strings.Repeat(`{"experiment":"H1","status":"OK"},`, 200))
	b := bytes.Repeat([]byte{0, 1, 2, 3, 5, 8, 13}, 3000)
	for i, data := range [][]byte{a, b, a, nil, a} {
		got, err := GzipBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if want := gzipFresh(t, data); sha(got) != sha(want) {
			t.Fatalf("gzip %d: pooled digest %s, fresh writer %s", i, sha(got), sha(want))
		}
	}
}

// TestTarballConcurrentPack packs different maps from several goroutines
// at once; under -race it also checks that a pooled writer is never
// shared between two packs.
func TestTarballConcurrentPack(t *testing.T) {
	const workers, rounds = 4, 25
	want := make([]string, workers)
	for w := range want {
		want[w] = sha(packFresh(t, tarballFixture(4+w, fmt.Sprintf("pkg%d", w))))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			files := tarballFixture(4+w, fmt.Sprintf("pkg%d", w))
			body := []byte(strings.Repeat(fmt.Sprintf("worker %d ", w), 100))
			wantGz := sha(gzipFresh(t, body))
			for i := 0; i < rounds; i++ {
				data, err := PackTarball(files)
				if err != nil {
					errs <- err
					return
				}
				if sha(data) != want[w] {
					errs <- fmt.Errorf("worker %d round %d: archive differs from a fresh writer's", w, i)
					return
				}
				gz, err := GzipBytes(body)
				if err != nil {
					errs <- err
					return
				}
				if sha(gz) != wantGz {
					errs <- fmt.Errorf("worker %d round %d: gzip body differs from a fresh writer's", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// allocBytesPerCall returns the heap bytes one call of f allocates once
// the pools are warm. The collector is off while it measures, so a GC
// cannot empty the pool mid-measurement.
func allocBytesPerCall(t *testing.T, f func() error) uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// The allocation gates count bytes, which do not move with the host: a
// compressor built per call costs about 1 MiB, a pooled one a few KiB.
const maxAllocPerCall = 64 << 10

func TestTarballPackAllocs(t *testing.T) {
	files := tarballFixture(12, "h1reco")
	per := allocBytesPerCall(t, func() error {
		_, err := PackTarball(files)
		return err
	})
	t.Logf("PackTarball: %d bytes per call", per)
	if per >= maxAllocPerCall {
		t.Fatalf("PackTarball allocates %d bytes per call, want < %d", per, maxAllocPerCall)
	}
}

func TestGzipBytesAllocs(t *testing.T) {
	body := []byte(strings.Repeat(`{"experiment":"H1","status":"OK"},`, 200))
	per := allocBytesPerCall(t, func() error {
		_, err := GzipBytes(body)
		return err
	})
	t.Logf("GzipBytes: %d bytes per call", per)
	if per >= maxAllocPerCall {
		t.Fatalf("GzipBytes allocates %d bytes per call, want < %d", per, maxAllocPerCall)
	}
}
