package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/plancache"
	"repro/internal/server"
	"repro/internal/wal"
)

// dmfbdHeartbeat is dmfbd's default -heartbeat interval.
const dmfbdHeartbeat = 5 * time.Second

// node is one dmfbd server running in this process on a loopback listener.
type node struct {
	id      string
	url     string
	srv     *server.Server
	hs      *http.Server
	ln      net.Listener
	served  chan error
	cache   *plancache.Cache // nil: the process-wide default, as in dmfbd
	store   *artifact.Store
	cnode   *cluster.Node
	wal     *wal.Log
	walPath string
}

// planCache resolves the cache the node plans through.
func (n *node) planCache() *plancache.Cache {
	if n.cache != nil {
		return n.cache
	}
	return plancache.Default()
}

// fleet is the set of servers a workload runs against.
type fleet struct {
	nodes []*node
	// peerTransport carries node-to-node calls; closed with the fleet.
	peerTransport *http.Transport
}

// bootFleet starts the servers of a workload under dir. Servers are
// configured as dmfbd configures them by default; handlers are wrapped by
// tr (a nil tracer wraps nothing).
func bootFleet(w *workload, dir string, tr *tracer) (f *fleet, err error) {
	f = &fleet{peerTransport: http.DefaultTransport.(*http.Transport).Clone()}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	for i := 0; i < w.nodes; i++ {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return f, fmt.Errorf("listen: %w", lerr)
		}
		f.nodes = append(f.nodes, &node{id: fmt.Sprintf("node-%d", i), url: "http://" + ln.Addr().String(), ln: ln})
	}
	for i, nd := range f.nodes {
		cfg := server.Config{}
		if w.clustered() {
			var peers []cluster.Peer
			for j, other := range f.nodes {
				if j != i {
					peers = append(peers, cluster.Peer{ID: other.id, URL: other.url})
				}
			}
			var rt http.RoundTripper = f.peerTransport
			if tr != nil {
				rt = tr.transport(rt)
			}
			if nd.cnode, err = cluster.NewNode(cluster.Config{Self: nd.id, Peers: peers, Transport: rt}); err != nil {
				return f, err
			}
			nd.cnode.StartHeartbeat(dmfbdHeartbeat)
			// Servers of separate dmfbd processes never share a plan cache.
			nd.cache = plancache.New(w.cacheCap)
			if nd.store, err = artifact.OpenStore(filepath.Join(dir, nd.id+"-artifacts"), w.tierCap); err != nil {
				return f, err
			}
			cfg.PlanCache, cfg.Artifacts, cfg.Cluster = nd.cache, nd.store, nd.cnode
		}
		var info *wal.ReplayInfo
		if w.wal {
			nd.walPath = filepath.Join(dir, nd.id+".wal")
			if nd.wal, info, err = wal.Open(nd.walPath); err != nil {
				return f, err
			}
			cfg.WAL = nd.wal
		}
		nd.srv = server.New(cfg)
		var h http.Handler = nd.srv.Handler()
		if tr != nil {
			h = tr.handler(h)
		}
		nd.hs = &http.Server{Handler: h}
		nd.served = make(chan error, 1)
		go func(nd *node) { nd.served <- nd.hs.Serve(nd.ln) }(nd)
		if nd.wal != nil {
			if _, err = nd.srv.Recover(context.Background(), info); err != nil {
				return f, err
			}
		}
	}
	return f, nil
}

// waitPublish blocks until no node has an async artifact publish in flight.
func (f *fleet) waitPublish() {
	for _, nd := range f.nodes {
		if nd.srv != nil {
			nd.srv.WaitPublish()
		}
	}
}

// close shuts every server down the way dmfbd does on SIGTERM — stop
// accepting, drain, stop heartbeats, close the WAL — and waits for every
// goroutine it started. It is safe on a partially booted fleet.
func (f *fleet) close() error {
	var errs []error
	f.waitPublish()
	for _, nd := range f.nodes {
		if nd.cnode != nil {
			nd.cnode.StopHeartbeat()
		}
	}
	for _, nd := range f.nodes {
		if nd.hs == nil {
			if nd.ln != nil {
				nd.ln.Close()
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := nd.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: shutdown: %w", nd.id, err))
		}
		if err := nd.srv.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: drain: %w", nd.id, err))
		}
		cancel()
		if err := <-nd.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("%s: serve: %w", nd.id, err))
		}
	}
	// Drained handlers may have spawned publishes after the first wait.
	f.waitPublish()
	for _, nd := range f.nodes {
		if nd.wal != nil {
			if err := nd.wal.Close(); err != nil {
				errs = append(errs, fmt.Errorf("%s: wal close: %w", nd.id, err))
			}
		}
	}
	f.peerTransport.CloseIdleConnections()
	return errors.Join(errs...)
}
