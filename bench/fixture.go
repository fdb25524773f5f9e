package main

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/fleet"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/microbench"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
)

// fixtureSources are the EIL files registered over the wire, bottom first.
var fixtureSources = []string{nn.GPT2EIL, nn.MoEEIL, mlservice.Fig1EIL}

// nativeCNN is the Go-native cnn_forward Fig. 1's EIL source binds to,
// priced with the datasheet coefficients so no calibration run is needed.
func nativeCNN() (*core.Interface, error) {
	spec := gpusim.RTX4090()
	coef := microbench.Coefficients{
		Device: spec.Name,
		Instr:  spec.NomInstrEnergy, L1: spec.NomL1Energy, L2: spec.NomL2Energy,
		VRAM: spec.NomVRAMEnergy, Static: spec.NomStaticPower,
	}
	return nn.CNNEnergyInterface(nn.Fig1CNN(), spec, coef.HardwareInterface())
}

// localStacks builds the three stacks in this process, sharing nothing
// with the served ones: the oracle and the stage replay evaluate on them.
func localStacks() (map[string]*core.Interface, error) {
	cnn, err := nativeCNN()
	if err != nil {
		return nil, err
	}
	out := map[string]*core.Interface{}
	for _, src := range fixtureSources {
		m, err := eil.Compile(src, map[string]*core.Interface{"cnn_forward": cnn})
		if err != nil {
			return nil, err
		}
		for _, name := range []string{ifaceHybrid, ifaceGPT2, ifaceMoE} {
			if iface := m[name]; iface != nil {
				out[name] = iface
			}
		}
	}
	return out, nil
}

// system is the program under test: either one eisvc.Server or a 3-node
// fleet behind fleet.NewRouter, served by an http.Server the benchmark
// owns on a loopback port.
type system struct {
	base   string
	server *eisvc.Server // single node
	fleet  *fleet.Fleet  // nil for a single node
	router *fleet.Router
	hs     *http.Server
	done   chan struct{}
}

// startSystem boots the system and registers the fixtures: the native
// interface in process (it holds Go closures), the EIL sources over the
// wire. tr, when non-nil, wraps the front handler in a span.
func startSystem(ctx context.Context, useFleet bool, tr *tracer) (*system, error) {
	cnn, err := nativeCNN()
	if err != nil {
		return nil, err
	}
	s := &system{done: make(chan struct{})}
	var front http.Handler
	spanName := "node"
	if useFleet {
		s.fleet, err = fleet.New(fleet.Config{Nodes: 3})
		if err != nil {
			return nil, err
		}
		if err := s.fleet.SeedInterface("cnn_forward", cnn); err != nil {
			s.fleet.Close()
			return nil, err
		}
		s.router = fleet.NewRouter(s.fleet)
		front, spanName = s.router, "router"
	} else {
		s.server = eisvc.NewServer(eisvc.Config{})
		if _, err := s.server.Registry().RegisterInterface("cnn_forward", cnn); err != nil {
			return nil, err
		}
		front = s.server
	}
	if tr != nil {
		front = tr.handler(spanName, front)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if s.fleet != nil {
			s.fleet.Close()
		}
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: front}
	go func() {
		_ = s.hs.Serve(ln) // returns on close
		close(s.done)
	}()
	c, transport := newClient(s.base, "bench-setup", nil)
	defer transport.CloseIdleConnections()
	for _, src := range fixtureSources {
		if _, err := c.RegisterCtx(ctx, src); err != nil {
			s.close()
			return nil, fmt.Errorf("register fixture: %w", err)
		}
	}
	return s, nil
}

func (s *system) close() {
	_ = s.hs.Close()
	<-s.done
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// servers lists every eisvc.Server of the system.
func (s *system) servers() []*eisvc.Server {
	if s.fleet == nil {
		return []*eisvc.Server{s.server}
	}
	var out []*eisvc.Server
	for _, n := range s.fleet.Nodes() {
		out = append(out, n.Server)
	}
	return out
}

// stats returns the system-wide /v1/stats: the node's own, or the
// router's aggregate over the fleet.
func (s *system) stats(ctx context.Context) (eisvc.StatsResponse, error) {
	if s.fleet != nil {
		return s.router.Stats(ctx).Aggregate, nil
	}
	c, transport := newClient(s.base, "bench-stats", nil)
	defer transport.CloseIdleConnections()
	st, err := c.StatsCtx(ctx)
	if err != nil {
		return eisvc.StatsResponse{}, err
	}
	return *st, nil
}

// newClient returns a binary-wire client with no retry and no hedging —
// a retried request would hide a failure the benchmark must count — and
// the transport it owns, so the caller can close its connections.
func newClient(base, id string, tr *tracer) (*eisvc.Client, *http.Transport) {
	transport := eisvc.NewTransport(eisvc.TransportTuning{})
	c := eisvc.NewClient(base)
	c.ID = id
	c.Binary = true
	if tr != nil {
		c.SetTransport(&tracedTransport{next: transport, tr: tr})
	} else {
		c.SetTransport(transport)
	}
	return c, transport
}
