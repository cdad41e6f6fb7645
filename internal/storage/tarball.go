package storage

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The paper: "the resulting binaries are stored as tar-balls on the
// common storage within the sp-system". Tarballs here are real tar.gz
// archives built with the standard library, so artifacts written by this
// framework are inspectable with ordinary tools.

// tarEpoch is the fixed modification time stamped on all tarball members.
// A fixed stamp keeps archives byte-identical across runs, which the
// content-addressed store turns into deduplication.
var tarEpoch = time.Date(2013, time.January, 1, 0, 0, 0, 0, time.UTC)

// gzipPool hands out reusable compressors at one level. A deflate
// writer carries about 1 MiB of tables, which built per archive would
// be the bulk of a campaign cycle's allocation. Reset is defined to
// leave a writer in the state NewWriterLevel returns, so a pooled
// writer produces exactly the bytes of a fresh one.
type gzipPool struct{ pool sync.Pool }

func newGzipPool(level int) *gzipPool {
	p := &gzipPool{}
	p.pool.New = func() any {
		zw, err := gzip.NewWriterLevel(io.Discard, level)
		if err != nil {
			panic(err) // only reachable with an invalid constant level
		}
		return zw
	}
	return p
}

// compress gzips the output of write into a fresh slice. The writer is
// re-pointed at io.Discard before it goes back to the pool so the pool
// never pins the caller's buffer.
func (p *gzipPool) compress(write func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	zw := p.pool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	defer func() {
		zw.Reset(io.Discard)
		p.pool.Put(zw)
	}()
	werr := write(zw)
	cerr := zw.Close()
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return buf.Bytes(), nil
}

// tarballGzip compresses archives; BestSpeed because artifacts are
// small and written on every build.
var tarballGzip = newGzipPool(gzip.BestSpeed)

// PackTarball builds a deterministic tar.gz archive from the given
// file-name → content map. Entries are written in sorted-name order with
// fixed metadata so that equal inputs produce byte-identical archives.
func PackTarball(files map[string][]byte) ([]byte, error) {
	names := make([]string, 0, len(files))
	for name := range files {
		if name == "" {
			return nil, fmt.Errorf("storage: tarball entry with empty name")
		}
		names = append(names, name)
	}
	sort.Strings(names)

	return tarballGzip.compress(func(w io.Writer) error {
		tw := tar.NewWriter(w)
		for _, name := range names {
			hdr := &tar.Header{
				Name:    name,
				Mode:    0o644,
				Size:    int64(len(files[name])),
				ModTime: tarEpoch,
			}
			if err := tw.WriteHeader(hdr); err != nil {
				return fmt.Errorf("storage: tarball header %q: %w", name, err)
			}
			if _, err := tw.Write(files[name]); err != nil {
				return fmt.Errorf("storage: tarball body %q: %w", name, err)
			}
		}
		return tw.Close()
	})
}

// UnpackTarball reads a tar.gz archive back into a file map.
func UnpackTarball(data []byte) (map[string][]byte, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("storage: not a gzip archive: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	files := make(map[string][]byte)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: corrupt tarball: %w", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("storage: reading %q: %w", hdr.Name, err)
		}
		files[hdr.Name] = body
	}
	return files, nil
}
