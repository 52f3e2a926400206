package serve

import (
	"context"
	"net"
)

// InProc is a Server running on its own loopback listener inside the
// current process — the spawnable replica handle used by shard-router
// tests, `sickle-shard -demo`, and anything else that needs a real HTTP
// backend without forking a process.
type InProc struct {
	Server *Server
	URL    string // http://host:port base URL, dialable once StartInProc returns

	l    net.Listener
	done chan error
}

// StartInProc builds a server from cfg and serves it in a background
// goroutine. An empty cfg.Addr picks an ephemeral loopback port
// (127.0.0.1:0); pass a concrete address to respawn a replica in place
// (the failover tests re-admit a killed backend this way).
func StartInProc(cfg Config) (*InProc, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.History().Stop()
		_ = s.teardown() // never served: the listen error is the one to report
		return nil, err
	}
	p := &InProc{
		Server: s,
		URL:    "http://" + l.Addr().String(),
		l:      l,
		done:   make(chan error, 1),
	}
	go func() { p.done <- s.Serve(l) }()
	return p, nil
}

// Addr returns the concrete listen address (host:port).
func (p *InProc) Addr() string { return p.l.Addr().String() }

// Close drains gracefully (Server.Shutdown) and waits for the serve loop
// to exit.
func (p *InProc) Close(ctx context.Context) error {
	err := p.Server.Shutdown(ctx)
	if serveErr := <-p.done; err == nil {
		err = serveErr
	}
	return err
}

// Kill stops the replica abruptly — the listener and every active
// connection are closed without draining, simulating a crashed backend.
// The WAL is frozen *first*: a real crash writes nothing more to disk,
// so the job-manager teardown below (which cancels runners and would
// otherwise record their cancellations) must leave no trace either —
// restart-on-the-same-data-dir tests then see exactly the on-disk state
// of a process that died at this instant. The batcher and job manager
// are still torn down so tests leak no goroutines.
func (p *InProc) Kill() {
	p.Server.durable.Freeze()
	p.Server.Tier.Close()
	<-p.done
	_ = p.Server.teardown() // a crash reports nothing
}
