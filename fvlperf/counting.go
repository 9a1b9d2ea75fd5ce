package main

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/durable"
)

// wireBytes counts HTTP body bytes in each direction.
type wireBytes struct {
	req, resp atomic.Int64
}

type wireKey struct{}

// withWireBytes attaches a counter that the transport charges every request
// made under ctx to.
func withWireBytes(ctx context.Context, w *wireBytes) context.Context {
	return context.WithValue(ctx, wireKey{}, w)
}

// countingTransport is an http.RoundTripper that counts request and
// response body bytes from the client side, so the program needs no hooks.
type countingTransport struct {
	base *http.Transport
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w, _ := req.Context().Value(wireKey{}).(*wireBytes)
	if w == nil {
		return t.base.RoundTrip(req)
	}
	if req.Body != nil && req.Body != http.NoBody {
		req = req.Clone(req.Context())
		req.Body = &countingBody{rc: req.Body, n: &w.req}
		req.GetBody = nil
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, n: &w.resp}
	return resp, nil
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingBody) Close() error { return c.rc.Close() }

// countingFS is a durable.FS over the real filesystem that counts syncs and
// bytes, for the durable rung of the ladder.
type countingFS struct {
	durable.DirFS
	syncs, written, read int64
}

func (fs *countingFS) Create(name string) (durable.File, error) {
	f, err := fs.DirFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) Append(name string) (durable.File, error) {
	f, err := fs.DirFS.Append(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) Open(name string) (durable.File, error) {
	f, err := fs.DirFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) SyncDir(dir string) error {
	fs.syncs++
	return fs.DirFS.SyncDir(dir)
}

type countingFile struct {
	durable.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written += int64(n)
	return n, err
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.read += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}
