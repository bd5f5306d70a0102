package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/cluster"
)

// shard is one imtd shard: a serve.Server on a loopback httptest server.
type shard struct {
	name  string
	srv   *serve.Server
	ts    *httptest.Server
	cache string
	jobs  string
}

// fleet is the system under test, assembled in-process from the public
// constructors: imtd shards behind an optional imtgw gateway. client
// talks to the gateway when there is one, else to the first shard.
type fleet struct {
	shards []*shard
	gw     *cluster.Gateway
	gwTS   *httptest.Server
	client *client.Client
	// gwTransport carries the gateway's shard traffic.
	gwTransport *http.Transport
}

type fleetOpts struct {
	shards  int
	gateway bool
	// ingest gives each shard a trace store and a durable job queue.
	ingest bool
}

// startFleet builds the fleet under dir. Each shard runs one simulation
// worker, so the fleet never simulates on more threads than shards.
func startFleet(dir string, o fleetOpts, spans *spanLog) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < o.shards; i++ {
		sd := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		sh := &shard{name: fmt.Sprintf("serve/%d", i), cache: filepath.Join(sd, "cache")}
		opts := serve.Options{Workers: 1, CacheDir: sh.cache}
		if o.ingest {
			sh.jobs = filepath.Join(sd, "jobs")
			opts.JobsDir = sh.jobs
			opts.JobWorkers = 1
			opts.TraceDir = filepath.Join(sd, "traces")
		}
		t0 := time.Now()
		opts.Obs = obs.NewHub()
		spans.addHub(sh.name, opts.Obs, t0)
		srv, err := serve.New(opts)
		if err != nil {
			f.close()
			return nil, err
		}
		sh.srv = srv
		sh.ts = httptest.NewServer(spans.wrap(sh.name, srv.Handler()))
		f.shards = append(f.shards, sh)
		urls = append(urls, sh.ts.URL)
	}
	base := urls[0]
	if o.gateway {
		// The gateway knows its shards by stable names, dialled at the
		// loopback ports they happen to get. The ring hashes shard names,
		// so cell placement depends on the seed alone, not on the ports.
		names := make([]string, len(urls))
		addrs := map[string]string{}
		for i, sh := range f.shards {
			host := fmt.Sprintf("shard-%d.e2ebench", i)
			names[i] = "http://" + host
			addrs[host+":80"] = sh.ts.Listener.Addr().String()
		}
		var d net.Dialer
		f.gwTransport = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				if real, ok := addrs[addr]; ok {
					addr = real
				}
				return d.DialContext(ctx, network, addr)
			},
		}
		pool := client.NewPool()
		pool.Configure = func(c *client.Client) { c.HTTPClient = &http.Client{Transport: f.gwTransport} }
		gw, err := cluster.New(cluster.Options{Shards: names, Pool: pool})
		if err != nil {
			f.close()
			return nil, err
		}
		f.gw = gw
		f.gwTS = httptest.NewServer(spans.wrap(layerGateway, gw.Handler()))
		base = f.gwTS.URL
	}
	f.client = client.New(base)
	return f, nil
}

// close stops the gateway, then every shard, and waits for each.
func (f *fleet) close() {
	if f.client != nil {
		f.client.HTTPClient.CloseIdleConnections()
	}
	if f.gwTS != nil {
		f.gwTS.Close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, sh := range f.shards {
		sh.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = sh.srv.DrainJobs(ctx)
		cancel()
	}
	if f.gwTransport != nil {
		f.gwTransport.CloseIdleConnections()
	}
}

// emptyCaches deletes every shard's cached results, so the next sweep
// misses on every cell.
func (f *fleet) emptyCaches() error {
	for _, sh := range f.shards {
		ents, err := os.ReadDir(sh.cache)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		for _, e := range ents {
			if err := os.RemoveAll(filepath.Join(sh.cache, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// hubs returns every shard's obs hub.
func (f *fleet) hubs() []*obs.Hub {
	out := make([]*obs.Hub, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.srv.Hub()
	}
	return out
}
