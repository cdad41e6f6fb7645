package storage

// HTTP conditional-request and content-coding helpers shared by both
// serving tiers — the store-level APIHandler here and the status
// service (internal/serve) built on top of it — so entity-tag matching
// and gzip negotiation can never drift between them.

import (
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// GzipMinSize is the smallest body worth compressing: below it the
// gzip header and the extra ETag variant outweigh the saved bytes.
const GzipMinSize = 256

// AcceptsGzip reports whether the request negotiates the gzip content
// coding: an Accept-Encoding member naming gzip (or *) with a nonzero
// q-value.
func AcceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		name = strings.TrimSpace(name)
		if !strings.EqualFold(name, "gzip") && name != "*" {
			continue
		}
		q := 1.0
		for _, p := range strings.Split(params, ";") {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
					q = f
				}
			}
		}
		return q > 0
	}
	return false
}

var responseGzip = newGzipPool(gzip.DefaultCompression)

// GzipBytes compresses data at the default level.
func GzipBytes(data []byte) ([]byte, error) {
	return responseGzip.compress(func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// NoneMatch reports which of the candidate entity tags the request's
// If-None-Match header matches, if any. Both the identity and +gzip
// variants of a validator are passed as candidates, so a client that
// cached either representation revalidates to 304. Weak-comparison
// rules apply (a W/ prefix is ignored), and "*" matches the first
// candidate.
func NoneMatch(r *http.Request, tags ...string) (string, bool) {
	inm := r.Header.Get("If-None-Match")
	if inm == "" || len(tags) == 0 {
		return "", false
	}
	for _, tok := range strings.Split(inm, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" {
			return tags[0], true
		}
		tok = strings.TrimPrefix(tok, "W/")
		for _, tag := range tags {
			if tok == tag {
				return tag, true
			}
		}
	}
	return "", false
}
