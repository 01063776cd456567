package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/sim"
)

// Client talks to a sweep daemon. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	// ClientID, when set, identifies this client to the daemon's per-client
	// admission control (sent as the X-Client-ID header). Unset, the daemon
	// falls back to the peer address.
	ClientID string
}

// NewClient targets a daemon at baseURL (e.g. "http://127.0.0.1:7077").
func NewClient(baseURL string) (*Client, error) {
	base, err := normalizeBase(baseURL)
	if err != nil {
		return nil, err
	}
	return &Client{base: base, hc: &http.Client{}}, nil
}

func normalizeBase(baseURL string) (string, error) {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("service: bad daemon address %q", baseURL)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// Submit sends the spec and returns the daemon's sweep ID. Backpressure
// (HTTP 429) surfaces as *BusyError with the server's Retry-After; a
// draining daemon (503) as ErrDraining.
func (c *Client) Submit(ctx context.Context, spec sim.SweepSpec) (string, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/v1/sweeps", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.ClientID != "" {
		req.Header.Set("X-Client-ID", c.ClientID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return "", fmt.Errorf("service: decoding submit response: %w", err)
		}
		return out.ID, nil
	case http.StatusTooManyRequests:
		retry := 2 * time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				retry = time.Duration(secs) * time.Second
			}
		}
		return "", &BusyError{RetryAfter: retry}
	case http.StatusServiceUnavailable:
		return "", ErrDraining
	default:
		return "", fmt.Errorf("service: submit: %s: %s", resp.Status, readErrBody(resp.Body))
	}
}

// Status fetches one sweep's summary.
func (c *Client) Status(ctx context.Context, id string) (SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/sweeps/"+url.PathEscape(id), nil)
	if err != nil {
		return SweepStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return SweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SweepStatus{}, fmt.Errorf("service: status: %s: %s", resp.Status, readErrBody(resp.Body))
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return SweepStatus{}, err
	}
	return st, nil
}

// Events follows the sweep's progress stream, invoking fn per event, and
// returns the terminal event. An fn error aborts the stream and is
// returned.
func (c *Client) Events(ctx context.Context, id string, fn func(CellEvent) error) (CellEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/sweeps/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return CellEvent{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return CellEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return CellEvent{}, fmt.Errorf("service: events: %s: %s", resp.Status, readErrBody(resp.Body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev CellEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return CellEvent{}, fmt.Errorf("service: bad event line: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return CellEvent{}, err
			}
		}
		if ev.Terminal {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return CellEvent{}, err
	}
	return CellEvent{}, fmt.Errorf("service: event stream for %s ended without a terminal event", id)
}

// Stream submits spec and streams the sweep's cells back as the
// PointUpdates a local sim.Runner.StreamGrid of the same grid emits, so
// sim.FoldLevels folds either alike. It returns the daemon's sweep ID. A
// cell event at index i becomes the update for point i / traces, trace
// i % traces, where traces is spec.TracesPerPoint(); a failed cell carries
// a *sim.CellError. A sweep that ends interrupted, or without reporting
// every cell, ends with a terminal update (Point -1), as does a broken
// event stream. Consumers drain the channel until it closes; cancelling
// ctx ends it early.
func (c *Client) Stream(ctx context.Context, spec sim.SweepSpec) (string, <-chan sim.PointUpdate, error) {
	if err := spec.Validate(); err != nil {
		return "", nil, err
	}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return "", nil, err
	}
	traces := spec.TracesPerPoint()
	total := len(spec.Modes) * len(spec.Levels()) * traces
	ch := make(chan sim.PointUpdate)
	send := func(u sim.PointUpdate) error {
		select {
		case ch <- u:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	go func() {
		defer close(ch)
		done, seen := 0, make([]bool, total)
		term, err := c.Events(ctx, id, func(ev CellEvent) error {
			if ev.Terminal {
				return nil
			}
			if ev.Total != total || ev.Index < 0 || ev.Index >= total || seen[ev.Index] || (ev.Err == "" && ev.Result == nil) {
				return fmt.Errorf("service: sweep %s: malformed event for cell %d of %d (want %d cells)", id, ev.Index, ev.Total, total)
			}
			seen[ev.Index] = true
			done++
			u := sim.PointUpdate{
				Point: ev.Index / traces, Trace: ev.Index % traces,
				Label: ev.Label, TraceName: ev.TraceName,
				Result: ev.Result, Replayed: ev.Replayed,
				Done: done, Total: total,
			}
			if ev.Err != "" {
				u.Err = &sim.CellError{Label: ev.Label, TraceName: ev.TraceName, Point: u.Point, Trace: u.Trace, Err: errors.New(ev.Err)}
			}
			return send(u)
		})
		switch {
		case err != nil:
		case term.State != "done" && term.State != "failed":
			err = fmt.Errorf("service: sweep %s ended %q (daemon drained mid-sweep; resubmit to resume from the journal)", id, term.State)
		case done < total:
			err = fmt.Errorf("service: sweep %s ended %q with %d of %d cells reported", id, term.State, done, total)
		}
		if err != nil {
			send(sim.PointUpdate{Point: -1, Trace: -1, Err: err})
		}
	}()
	return id, ch, nil
}

// OpenSweep streams the cells of spec's grid for sim.FoldLevels: from the
// sweep daemon at addr (Client.Stream), or, when addr is "", in process on
// r, whose windowing plan and width spec must carry (Runner.SweepSpec).
// The ID names the daemon's sweep; it is "" in process.
func OpenSweep(ctx context.Context, addr string, r *sim.Runner, spec sim.SweepSpec) (string, <-chan sim.PointUpdate, error) {
	if addr == "" {
		modes, err := spec.CircuitModes()
		if err != nil {
			return "", nil, err
		}
		return "", r.StreamGrid(ctx, spec.Traces(), modes, spec.Levels()), nil
	}
	c, err := NewClient(addr)
	if err != nil {
		return "", nil, err
	}
	return c.Stream(ctx, spec)
}

// StreamLevels runs the spec on the daemon and collects it voltage by
// voltage under the local sim.Runner.StreamLevels contract: sim.FoldLevels
// over Stream, so the emitted points are bit-identical to a local sweep of
// the same spec and a failed point carries its lowest-trace-index cell.
func (c *Client) StreamLevels(ctx context.Context, spec sim.SweepSpec, onLevel func(circuit.Millivolts, map[circuit.Mode]*sim.Point, map[circuit.Mode]*sim.CellError) error) error {
	modes, err := spec.CircuitModes()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, updates, err := c.Stream(ctx, spec)
	if err != nil {
		return err
	}
	return sim.FoldLevels(ctx, cancel, updates, spec.TracesPerPoint(), modes, spec.Levels(), onLevel)
}

func readErrBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return strings.TrimSpace(string(b))
}

// httpSource speaks the daemon's lease endpoints — the external worker's
// CellSource.
type httpSource struct {
	base string
	hc   *http.Client
}

func newHTTPSource(baseURL string) (*httpSource, error) {
	base, err := normalizeBase(baseURL)
	if err != nil {
		return nil, err
	}
	return &httpSource{base: base, hc: &http.Client{Timeout: 10 * time.Second}}, nil
}

func (h *httpSource) Acquire(ctx context.Context, worker string) (*Lease, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+"/api/v1/lease?worker="+url.QueryEscape(worker), nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var l Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return nil, err
		}
		return &l, nil
	default:
		return nil, fmt.Errorf("service: acquire: %s: %s", resp.Status, readErrBody(resp.Body))
	}
}

func (h *httpSource) Heartbeat(ctx context.Context, leaseID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+"/api/v1/lease/"+url.PathEscape(leaseID)+"/heartbeat", nil)
	if err != nil {
		return err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return ErrLeaseLost
	default:
		return fmt.Errorf("service: heartbeat: %s", resp.Status)
	}
}

func (h *httpSource) Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error {
	// entry is the sealed journal-entry upload (base64 over JSON); the
	// lease ID in the URL doubles as the request's idempotency token.
	body, err := json.Marshal(struct {
		Worker string `json:"worker"`
		Err    string `json:"err"`
		Entry  []byte `json:"entry,omitempty"`
	}{worker, errMsg, entry})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+"/api/v1/lease/"+url.PathEscape(leaseID)+"/done", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return ErrLeaseLost
	default:
		return fmt.Errorf("service: complete: %s", resp.Status)
	}
}
