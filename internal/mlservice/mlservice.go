// Package mlservice implements the paper's Fig. 1 system end to end: an
// ML-model web service that checks a two-tier request cache (local LRU,
// then a Redis-like remote cache) and falls back to CNN inference on the
// GPU for misses.
//
// The service is the running *implementation*; its energy interface — the
// very program printed in the paper's Fig. 1 — is provided both in EIL
// source (Fig1EIL) and as a constructed core.Interface whose ECVs the
// service estimates from its own cache statistics (the resource-manager
// role of Fig. 2: the layer that binds resources is the layer that can
// specialize the exported interface's ECVs).
package mlservice

import (
	"fmt"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/nn"
)

// HostSpec is the datasheet of the serving host's cache path: energy per
// response byte for local and remote lookups, and fixed per-request cost.
// True silicon deviates by up to Deviation (hidden in the Host).
type HostSpec struct {
	LocalPerByte  energy.Joules
	RemotePerByte energy.Joules
	PerRequest    energy.Joules
	Deviation     float64
}

// DefaultHostSpec returns the serving-host datasheet used by the F1
// experiment. The local:remote ratio (1:20) mirrors Fig. 1's 5 vs 100 mJ.
func DefaultHostSpec() HostSpec {
	return HostSpec{
		LocalPerByte:  5 * energy.Microjoule,
		RemotePerByte: 100 * energy.Microjoule,
		PerRequest:    50 * energy.Microjoule,
		Deviation:     0.01,
	}
}

// Host is the serving machine: it executes cache lookups and accumulates
// their true energy. It satisfies rapl.Device so host-side energy is
// measured the same way as everything else.
type Host struct {
	spec              HostSpec
	localPB, remotePB energy.Joules
	perReq            energy.Joules
	pkg               energy.Joules
}

// NewHost instantiates a host; seed draws its hidden deviations.
func NewHost(spec HostSpec, seed int64) *Host {
	// Small deterministic deviation derived from the seed without pulling
	// in a full RNG: independent signed factors in ±Deviation. The double
	// modulo keeps the hash non-negative for negative seeds or overflow.
	f := func(k int64) float64 {
		h := (seed*2654435761 + k*40503) % 1000
		x := float64((h+1000)%1000) / 1000 // [0,1)
		return (2*x - 1) * spec.Deviation
	}
	return &Host{
		spec:     spec,
		localPB:  spec.LocalPerByte * energy.Joules(1+f(1)),
		remotePB: spec.RemotePerByte * energy.Joules(1+f(2)),
		perReq:   spec.PerRequest * energy.Joules(1+f(3)),
	}
}

// Spec returns the host's public datasheet.
func (h *Host) Spec() HostSpec { return h.spec }

// PackageEnergy returns the host's cumulative true energy (rapl.Device).
func (h *Host) PackageEnergy() energy.Joules { return h.pkg }

func (h *Host) chargeLocal(bytes float64) {
	h.pkg += h.perReq + h.localPB*energy.Joules(bytes)
}

func (h *Host) chargeRemote(bytes float64) {
	h.pkg += h.perReq + h.remotePB*energy.Joules(bytes)
}

// MaxResponseLen is Fig. 1's response-size bound (bytes).
const MaxResponseLen = 1024

// Service is the Fig. 1 web service.
type Service struct {
	host   *Host
	gpu    *gpusim.GPU
	cnn    *nn.CNNEngine
	cnnCfg nn.CNNConfig
	local  *cache.Store[uint64, struct{}]
	remote *cache.Store[uint64, struct{}]

	requests   uint64
	localHits  uint64
	remoteHits uint64
}

// NewService assembles the Fig. 2 stack: host (cache path), GPU (CNN
// path), and the two cache tiers.
func NewService(host *Host, gpu *gpusim.GPU, cnnCfg nn.CNNConfig, localCap, remoteCap int) (*Service, error) {
	if host == nil || gpu == nil {
		return nil, fmt.Errorf("mlservice: nil host or gpu")
	}
	eng, err := nn.NewCNNEngine(cnnCfg, gpu)
	if err != nil {
		return nil, err
	}
	return &Service{
		host:   host,
		gpu:    gpu,
		cnn:    eng,
		cnnCfg: cnnCfg,
		local:  cache.NewStore[uint64, struct{}](localCap),
		remote: cache.NewStore[uint64, struct{}](remoteCap),
	}, nil
}

// Request is one incoming request: a cache key (image hash) and the image
// abstraction the CNN path needs.
type Request struct {
	Key    uint64
	Pixels float64
	Zeros  float64
}

// Outcome classifies how a request was served.
type Outcome int

// Request outcomes.
const (
	LocalHit Outcome = iota
	RemoteHit
	Miss
)

// Handle serves one request, consuming energy on the host and/or GPU.
func (s *Service) Handle(r Request) (Outcome, error) {
	s.requests++
	if _, ok := s.local.Get(r.Key); ok {
		s.localHits++
		s.host.chargeLocal(MaxResponseLen)
		return LocalHit, nil
	}
	if _, ok := s.remote.Get(r.Key); ok {
		s.remoteHits++
		s.host.chargeRemote(MaxResponseLen)
		s.local.Put(r.Key, struct{}{})
		return RemoteHit, nil
	}
	if _, _, err := s.cnn.Forward(r.Pixels, r.Zeros); err != nil {
		return Miss, err
	}
	s.local.Put(r.Key, struct{}{})
	s.remote.Put(r.Key, struct{}{})
	return Miss, nil
}

// TotalEnergy returns the service's cumulative true energy across both
// devices (host + GPU); tests use it, measurement goes through the
// devices' counters.
func (s *Service) TotalEnergy() energy.Joules {
	return s.host.PackageEnergy() + s.gpu.TrueEnergyForTest()
}

// Stats returns request counters since the last ResetStats.
func (s *Service) Stats() (requests, localHits, remoteHits uint64) {
	return s.requests, s.localHits, s.remoteHits
}

// ResetStats clears the service's and caches' counters (end of warmup).
func (s *Service) ResetStats() {
	s.requests, s.localHits, s.remoteHits = 0, 0, 0
	s.local.ResetStats()
	s.remote.ResetStats()
}

// EstimatedECVs computes the interface's ECV probabilities from observed
// statistics: P(request_hit) — served from either cache tier — and
// P(local_cache_hit | request_hit). This is the resource manager
// specializing the exported interface (§3: ECVs "capture factors about the
// module ... that influence energy but are not directly related to the
// input").
func (s *Service) EstimatedECVs() (pRequestHit, pLocalGivenHit float64, ok bool) {
	if s.requests == 0 {
		return 0, 0, false
	}
	hits := s.localHits + s.remoteHits
	pRequestHit = float64(hits) / float64(s.requests)
	if hits == 0 {
		return pRequestHit, 0, true
	}
	return pRequestHit, float64(s.localHits) / float64(hits), true
}

// Interface builds the service's energy interface — Fig. 1 as a runnable
// object — with the given ECV probabilities, the host's datasheet for the
// cache path, and the CNN interface (built from cnn config + GPU spec +
// calibrated hardware interface) for the miss path. The CNN interface is
// bound as "cnn"; swapping GPUs rebinds it.
func (s *Service) Interface(pRequestHit, pLocalGivenHit float64, cnnIface *core.Interface) (*core.Interface, error) {
	if cnnIface == nil || cnnIface.Method("forward") == nil {
		return nil, fmt.Errorf("mlservice: cnn interface missing or lacks 'forward'")
	}
	spec := s.host.Spec()
	iface := core.New("ml_webservice")
	iface.SetDoc("Fig. 1: energy interface of the ML-model web service")
	if err := iface.AddECV(core.BoolECV("request_hit", pRequestHit,
		"request found in cache")); err != nil {
		return nil, err
	}
	if err := iface.AddECV(core.BoolECV("local_cache_hit", pLocalGivenHit,
		"cache hit in current node")); err != nil {
		return nil, err
	}
	if err := iface.Bind("cnn", cnnIface); err != nil {
		return nil, err
	}
	iface.MustMethod(core.Method{
		Name: "cache_lookup", Params: []string{"response_len"},
		Doc: "energy of a cache lookup: local or remote by the ECV",
		Body: func(c *core.Call) energy.Joules {
			bytes := energy.Joules(c.Num(0))
			if c.ECVBool("local_cache_hit") {
				return spec.PerRequest + spec.LocalPerByte*bytes
			}
			return spec.PerRequest + spec.RemotePerByte*bytes
		},
	})
	iface.MustMethod(core.Method{
		Name: "handle", Params: []string{"request"},
		Doc: "energy to serve one request (Fig. 1's E_ml_webservice_handle)",
		Body: func(c *core.Call) energy.Joules {
			if c.ECVBool("request_hit") {
				return c.Self("cache_lookup", core.Num(MaxResponseLen))
			}
			return c.E("cnn", "forward",
				core.Num(c.FieldNum(0, "pixels")),
				core.Num(c.FieldNum(0, "zeros")))
		},
	})
	return iface, nil
}

// Fig1EIL is the paper's Fig. 1 energy interface in EIL source, verbatim in
// structure (same ECVs, same branch shape, same constants in millijoules).
// Compile it with a registry containing the "cnn_forward" hardware-level
// interface to obtain an executable interface equivalent to Interface().
const Fig1EIL = `
interface ml_webservice "Fig. 1: ML-model web service" {
  ecv request_hit: bernoulli(0.3) "request found in cache"
  ecv local_cache_hit: bernoulli(0.8) "cache hit in current node"
  uses cnn: cnn_forward

  func handle(request) {
    let max_response_len = 1024
    if request_hit {
      return cache_lookup(request.image, max_response_len)
    } else {
      return cnn.forward(request.pixels, request.zeros)
    }
  }

  func cache_lookup(key, response_len) {
    if local_cache_hit {
      return 0.005mJ * response_len
    } else {
      return 0.1mJ * response_len
    }
  }
}
`
