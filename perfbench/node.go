package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hbmvolt/internal/fleet"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
)

// daemonConfig is hbmvoltd's default service configuration: every
// field at its zero value (the package defaults the daemon's flags
// repeat) except the per-sweep board-fleet size, which the daemon's -j
// flag defaults to GOMAXPROCS.
func daemonConfig() service.Config {
	return service.Config{FleetSize: runtime.GOMAXPROCS(0)}
}

// node is one in-process hbmvoltd: a service.Server (plus an optional
// fleet forwarder) behind a real loopback listener, the way the fleet
// partition tests assemble theirs.
type node struct {
	url string // dialable base URL
	srv *service.Server
	fwd *fleet.Forwarder
	hs  *http.Server
	// requests counts every HTTP request the node receives.
	requests atomic.Int64
	// corruptResult, when > 0, flips one byte in the body of that
	// (1-based) /result response, keeping the checksum header: a
	// transfer corrupted in flight, for proving the gate trips.
	corruptResult atomic.Int64
	results       atomic.Int64
}

// startNode serves cfg on ln. fopts, when non-nil, puts the node in
// fleet mode; its forwarder reports into the node's registry, as the
// daemon wires it.
func startNode(ln net.Listener, cfg service.Config, fopts *fleet.Options) (*node, error) {
	n := &node{url: "http://" + ln.Addr().String()}
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	if fopts != nil {
		fwd, err := fleet.New(*fopts)
		if err != nil {
			return nil, err
		}
		fwd.RegisterMetrics(reg)
		n.fwd = fwd
		cfg.Forwarder = fwd
	}
	srv, err := service.Open(cfg)
	if err != nil {
		if n.fwd != nil {
			n.fwd.Close()
		}
		return nil, err
	}
	n.srv = srv
	n.hs = &http.Server{Handler: http.HandlerFunc(n.serve)}
	go n.hs.Serve(ln)
	return n, nil
}

func (n *node) serve(w http.ResponseWriter, r *http.Request) {
	n.requests.Add(1)
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result") {
		if k := n.corruptResult.Load(); k > 0 && n.results.Add(1) == k {
			w = &corruptingWriter{ResponseWriter: w}
		}
	}
	n.srv.ServeHTTP(w, r)
}

// corruptingWriter flips the first body byte it writes.
type corruptingWriter struct {
	http.ResponseWriter
	done bool
}

func (c *corruptingWriter) Write(p []byte) (int, error) {
	if !c.done && len(p) > 0 {
		c.done = true
		q := append([]byte(nil), p...)
		q[0] ^= 0x01
		return c.ResponseWriter.Write(q)
	}
	return c.ResponseWriter.Write(p)
}

// close stops the listener, then the manager (flushing cache tiers),
// then the forwarder.
func (n *node) close() {
	n.hs.Close()
	n.srv.Close()
	if n.fwd != nil {
		n.fwd.Close()
	}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// newClient returns a service client with at most conc connections to
// the node. It never retries: a refused (429/503) request is reported,
// not hidden.
func newClient(url string, conc int) *service.Client {
	c := service.NewClient(url)
	c.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conc,
		MaxIdleConnsPerHost: conc,
	}}
	c.Retries = -1
	return c
}

// scrape is one /metrics exposition, keyed by series ("name{labels}").
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: HTTP %d", url, resp.StatusCode)
	}
	out := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping %s/metrics: bad sample %q", url, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of family name whose labels include all of the
// given `k="v"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after − before for one family (and label filter).
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// waitHealthy polls /healthz until the node answers, so set-up time
// includes a server that is actually serving.
func waitHealthy(ctx context.Context, c *service.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Health(ctx); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("node %s never became healthy: %w", c.BaseURL, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
