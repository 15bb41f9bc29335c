package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rankfair"
	"rankfair/internal/fault"
	"rankfair/internal/obs"
	"rankfair/internal/service"
)

// daemonConfig is the configuration cmd/rankfaird builds from its flag
// defaults, plus -data-dir and -persist-cache when dataDir is set. In a
// traced run the store writes through the timing filesystem.
func daemonConfig(dataDir string, spans *tracer) service.Config {
	var fs fault.FS
	if spans != nil && dataDir != "" {
		fs = newTimingFS(spans)
	}
	return service.Config{
		AuditWorkers:        1,
		QueueDepth:          64,
		CacheEntries:        128,
		AnalystCacheEntries: 32,
		MaxDatasets:         64,
		MaxUploadBytes:      32 << 20,
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		DataDir:             dataDir,
		PersistCache:        dataDir != "",
		StoreFS:             fs,
	}
}

// daemon is an in-process rankfaird: the service behind its HTTP handler
// on a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan error
}

func startDaemon(cfg service.Config) (*daemon, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	d := &daemon{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the HTTP server and the audit workers, as rankfaird does on
// SIGTERM, and waits for the serve goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errHTTP := d.srv.Shutdown(ctx)
	errJobs := d.svc.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(err, errHTTP, errJobs)
	}
	return errors.Join(errHTTP, errJobs)
}

// client is the load generator's HTTP side: one transport holding at most
// two connections, shared by at most two goroutines.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	base  string
	spans *tracer // nil in untraced runs
}

func newClient(spans *tracer) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr, spans: spans}
}

// attach points the client at a (re)started daemon.
func (c *client) attach(d *daemon) {
	c.tr.CloseIdleConnections()
	c.base = d.base
}

// do sends one request and returns the body of a 2xx response. route names
// the span in traced runs.
func (c *client) do(ctx context.Context, method, route, path, contentType string, body []byte) ([]byte, error) {
	ctx, id := c.spans.start(ctx, method+" "+route)
	defer c.spans.finish(id)
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(raw))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, msg)
	}
	return raw, nil
}

func (c *client) getJSON(ctx context.Context, route, path string, v any) error {
	raw, err := c.do(ctx, http.MethodGet, route, path, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func (c *client) upload(ctx context.Context, src *source, csv []byte) (service.DatasetInfo, error) {
	var info service.DatasetInfo
	raw, err := c.do(ctx, http.MethodPost, "/v1/datasets", "/v1/datasets?name="+src.name, "text/csv", csv)
	if err != nil {
		return info, err
	}
	return info, json.Unmarshal(raw, &info)
}

func (c *client) dataset(ctx context.Context, id string) (service.DatasetInfo, error) {
	var info service.DatasetInfo
	err := c.getJSON(ctx, "/v1/datasets/{id}", "/v1/datasets/"+id, &info)
	return info, err
}

func (c *client) deleteDataset(ctx context.Context, id string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/datasets/{id}", "/v1/datasets/"+id, "", nil)
	return err
}

func (c *client) appendRows(ctx context.Context, id string, rows []byte) (service.AppendResponse, error) {
	var resp service.AppendResponse
	raw, err := c.do(ctx, http.MethodPost, "/v1/datasets/{id}/rows", "/v1/datasets/"+id+"/rows", "text/csv", rows)
	if err != nil {
		return resp, err
	}
	return resp, json.Unmarshal(raw, &resp)
}

// warm builds the analyst for (dataset, ranker) without running a lattice
// search: a repair binds the analyst, and the daemon admits analysts into
// its cache pre-warmed.
func (c *client) warm(ctx context.Context, info service.DatasetInfo, spec service.RankerSpec) error {
	body, err := json.Marshal(service.RepairRequest{Dataset: info.ID, Ranker: spec, Attr: info.Attributes[0], K: 10})
	if err != nil {
		return err
	}
	_, err = c.do(ctx, http.MethodPost, "/v1/repair", "/v1/repair", "application/json", body)
	return err
}

// auditResult is one audit as the client saw it.
type auditResult struct {
	view   service.JobView
	report []byte
	submit time.Duration // POST ?wait=true
	fetch  time.Duration // GET report
}

// audit submits an audit, waits for it, and fetches its report.
func (c *client) audit(ctx context.Context, id string, spec service.RankerSpec, p rankfair.AuditParams) (auditResult, error) {
	var r auditResult
	body, err := json.Marshal(service.AuditRequest{Dataset: id, Ranker: spec, Params: p})
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	raw, err := c.do(ctx, http.MethodPost, "/v1/audits", "/v1/audits?wait=true", "application/json", body)
	r.submit = time.Since(t0)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r.view); err != nil {
		return r, err
	}
	if r.view.Status != service.JobDone {
		return r, fmt.Errorf("audit %s ended %s: %s", r.view.ID, r.view.Status, r.view.Error)
	}
	t1 := time.Now()
	r.report, err = c.do(ctx, http.MethodGet, "/v1/audits/{id}/report", "/v1/audits/"+r.view.ID+"/report", "", nil)
	r.fetch = time.Since(t1)
	return r, err
}

func (c *client) trace(ctx context.Context, id string) (obs.TraceTree, error) {
	var tt obs.TraceTree
	err := c.getJSON(ctx, "/v1/audits/{id}/trace", "/v1/audits/"+id+"/trace", &tt)
	return tt, err
}

func (c *client) healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", "/healthz", "", nil)
	return err
}

// counters scrapes the unlabeled series of /metrics.
func (c *client) counters(ctx context.Context) (map[string]float64, error) {
	raw, err := c.do(ctx, http.MethodGet, "/metrics", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
