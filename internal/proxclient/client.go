package proxclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/resilient"
	"metricprox/internal/service/api"
)

// APIError is a non-2xx response from the daemon, decoded from the wire
// error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the wire error code (api.Code* constants).
	Code string
	// Message elaborates.
	Message string

	// retryAfter is the server's Retry-After ask in seconds, 0 if absent.
	retryAfter int
}

// Error formats the error for logs.
func (e *APIError) Error() string {
	return fmt.Sprintf("metricproxd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Unwrap maps oracle_unavailable onto core.ErrOracleUnavailable so
// errors.Is works across the wire, matching in-process semantics.
func (e *APIError) Unwrap() error {
	if e.Code == api.CodeOracleUnavailable {
		return core.ErrOracleUnavailable
	}
	return nil
}

// retryable reports whether the request that produced e may be retried:
// load shedding and drain are transient by definition; everything else
// the server said is final (in particular oracle_unavailable — the
// server-side resilient policy already spent its retry budget).
func (e *APIError) retryable() bool {
	return e.Code == api.CodeOverloaded || e.Code == api.CodeDraining
}

// Caller is the transport a Session rides on. Client is its one
// implementation; tests substitute a fake through it to script the
// daemon's answers.
type Caller interface {
	// Requests returns the number of HTTP requests sent so far — the
	// round-trip count the batching experiment measures.
	Requests() int64

	do(ctx context.Context, method, path string, in, out any) error
}

// Options configures a Client.
type Options struct {
	// Policy is the retry/backoff/breaker policy for transport errors;
	// zero-value fields take resilient's defaults.
	Policy resilient.Policy
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Logf, when non-nil, receives retry/breaker log lines.
	Logf func(format string, args ...any)
}

// Client is a connection to one metricproxd base URL. It is safe for
// concurrent use; all state is the round-trip counter and the breaker.
type Client struct {
	base     string
	hc       *http.Client
	policy   resilient.Policy
	breaker  *resilient.Breaker
	logf     func(string, ...any)
	requests atomic.Int64
	sleep    func(time.Duration) // test seam
}

// New returns a Client for the daemon at base (e.g. "http://127.0.0.1:7600").
func New(base string, opts Options) *Client {
	p := opts.Policy.Normalize()
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      hc,
		policy:  p,
		breaker: resilient.NewBreaker(p.FailureThreshold, p.Cooldown),
		logf:    logf,
		sleep:   time.Sleep,
	}
}

// Requests returns the number of HTTP requests sent so far — the
// round-trip count the batching experiment measures.
func (c *Client) Requests() int64 { return c.requests.Load() }

// Breaker exposes the transport circuit breaker for tests and metrics.
func (c *Client) Breaker() *resilient.Breaker { return c.breaker }

// do runs one logical API call with the full retry/backoff/breaker
// treatment: transport errors and retryable API errors burn attempts with
// deterministic backoff (honouring Retry-After when the server asked for
// a pause); permanent API errors return immediately.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.sleep(c.backoff(attempt - 1))
		}
		if !c.breaker.Allow() {
			lastErr = fmt.Errorf("proxclient: breaker open for %s %s", method, path)
			continue
		}
		err := c.once(ctx, method, path, in, out)
		if err == nil {
			c.breaker.Record(true)
			return nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			// The daemon answered: the transport works.
			c.breaker.Record(true)
			if !apiErr.retryable() {
				return err
			}
			if ra := apiErr.retryAfter; ra > 0 {
				if d := time.Duration(ra) * time.Second; d > c.backoff(attempt) {
					c.sleep(d - c.backoff(attempt)) // top up to the server's ask
				}
			}
			lastErr = err
			c.logf("proxclient: %s %s attempt %d shed: %v", method, path, attempt+1, err)
			continue
		}
		// Transport failure (connect refused, reset, timeout).
		c.breaker.Record(false)
		lastErr = err
		c.logf("proxclient: %s %s attempt %d failed: %v", method, path, attempt+1, err)
		if ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("proxclient: %s %s failed after retries: %w", method, path, lastErr)
}

// backoff returns the deterministic delay before retrying after attempt
// failures, reusing the resilient policy's jittered exponential schedule
// keyed by the request sequence number (requests are not pair-shaped, so
// the sequence plays the role of the pair).
func (c *Client) backoff(attempt int) time.Duration {
	seq := int(c.requests.Load())
	return c.policy.Backoff(0, seq, attempt+1)
}

// once sends a single HTTP request and decodes the response.
func (c *Client) once(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("proxclient: encode request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	if c.policy.PerCallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.policy.PerCallTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.requests.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Code: api.CodeInternal}
		var eb api.ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Code != "" {
			apiErr.Code, apiErr.Message = eb.Code, eb.Message
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			apiErr.retryAfter = ra
		}
		return apiErr
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("proxclient: decode response: %w", err)
		}
	}
	return nil
}

// Healthz probes the daemon.
func (c *Client) Healthz(ctx context.Context) (api.Healthz, error) {
	var h api.Healthz
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Sessions lists the daemon's live sessions.
func (c *Client) Sessions(ctx context.Context) ([]string, error) {
	var list api.SessionList
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &list); err != nil {
		return nil, err
	}
	return list.Sessions, nil
}

// Delete evicts a session server-side.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+name, nil, nil)
}
