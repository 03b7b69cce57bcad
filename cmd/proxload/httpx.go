package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// server is one in-process HTTP server on a loopback listener.
type server struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

// listen binds a loopback port; the URL is known before anything serves
// on it, so cluster topologies can name every node first.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve serves h on l until close.
func serve(l net.Listener, h http.Handler) *server {
	s := &server{hs: &http.Server{Handler: h}, url: "http://" + l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(l) // returns http.ErrServerClosed once close runs
	}()
	return s
}

// close stops the server and waits for its Serve loop to return.
func (s *server) close() {
	_ = s.hs.Close() // closing the listener and live conns is the whole point; nothing to report
	<-s.done
}

// newTransport is the load clients' one keep-alive transport: at most two
// connections per host, the reference machine's vCPU count.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		IdleConnTimeout:     time.Minute,
	}
}

// httpClient returns client c's http.Client over the shared transport,
// plus its trace state when tr is non-nil.
func httpClient(transport http.RoundTripper, tr *tracer) (*http.Client, *clientTrace) {
	if tr == nil {
		return &http.Client{Transport: transport}, nil
	}
	ct := tr.client()
	return &http.Client{Transport: &rtTrace{base: transport, t: tr, ct: ct}}, ct
}

// call sends one JSON request and decodes a 200 answer into out; the raw
// body is returned either way.
func call(ctx context.Context, hc *http.Client, method, url string, in, out any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return data, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return data, nil
}

// warmUp opens every client's keep-alive connections before timing
// starts: all clients probe url concurrently, a few times each.
func warmUp(ctx context.Context, hcs []*http.Client, url string) error {
	errs := make([]error, len(hcs))
	var wg sync.WaitGroup
	for c, hc := range hcs {
		wg.Add(1)
		go func(c int, hc *http.Client) {
			defer wg.Done()
			for i := 0; i < 4 && errs[c] == nil; i++ {
				_, errs[c] = call(ctx, hc, http.MethodGet, url, nil, nil)
			}
		}(c, hc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// cacheBytes sums the sizes of the .cache files under dirs.
func cacheBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.cache"))
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			st, err := os.Stat(f)
			if err != nil {
				return 0, err
			}
			total += st.Size()
		}
	}
	return total, nil
}
