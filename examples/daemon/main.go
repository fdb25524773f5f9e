// Daemon quickstart: the Fig. 2 resource-manager workflow over a network
// boundary. An eid daemon starts in-process on a loopback port; a client
// registers a two-layer EIL stack over the wire, evaluates it (the repeat
// is a memo hit), swaps the hardware layer with a rebind — which
// invalidates the memo — and reads the serving stats and energy ledger.
//
// Against a standalone daemon the flow is identical:
//
//	go run ./cmd/eid -addr 127.0.0.1:7757 &
//	... eisvc.NewClient("http://127.0.0.1:7757") ...
package main

import (
	"fmt"
	"log"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

const stack = `
interface dsp_v1 "first-generation DSP" {
  func fft(points) { return 3nJ * points }
  func dma(bytes)  { return 0.5nJ * bytes }
}

interface dsp_v2 "next-gen DSP: fft block redesigned" {
  func fft(points) { return 1nJ * points }
  func dma(bytes)  { return 0.5nJ * bytes }
}

interface audio_pipeline "frame pipeline with a silence detector" {
  ecv silent_frame: bernoulli(0.35) "frame below the silence threshold"
  uses dsp: dsp_v1

  func process_frame(samples) {
    if silent_frame {
      return dsp.dma(samples * 2)
    }
    return dsp.dma(samples * 2) + dsp.fft(samples)
  }
}
`

func main() {
	// Serve on a loopback port. `go run ./cmd/eid` does exactly this, plus
	// flags for workers, queue depth, memo capacity, and deadlines.
	base, stop, err := eisvc.ServeLoopback(eisvc.NewServer(eisvc.Config{}))
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	c := eisvc.NewClient(base)
	c.ID = "quickstart" // names this client in the daemon's energy ledger

	// ① The program exports its energy interfaces to the resource manager.
	infos, err := c.Register(stack)
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range infos {
		fmt.Printf("registered %s v%d  methods=%v ecvs=%v\n",
			info.Name, info.Version, info.Methods, info.ECVs)
	}

	// ② The resource manager queries them. The answer is an exact
	// distribution, bit-identical to a local Interface.Eval.
	args := []core.Value{core.Num(4096)}
	d, _, err := c.Eval("audio_pipeline", "process_frame", args, core.Expected())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("E[process_frame(4096)] = %s  (p99 %.3g J)\n", d, d.Quantile(0.99))

	// ③ Asking again is a memo hit: no re-evaluation, one HTTP round-trip.
	_, resp, err := c.Eval("audio_pipeline", "process_frame", args, core.Expected())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat answered from memo: cached=%v\n", resp.Cached)

	// ④ Hardware changes: rebind just the bottom layer. The interface gets
	// a fresh version, so every memoized answer for the old one is dead.
	if _, err := c.Rebind("audio_pipeline", "dsp", "dsp_v2"); err != nil {
		log.Fatal(err)
	}
	d2, resp, err := c.Eval("audio_pipeline", "process_frame", args, core.Expected())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after rebind to dsp_v2: %s  (cached=%v)\n", d2, resp.Cached)

	// The daemon attributes every evaluated joule to the asking client.
	st, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d requests, %d memo hit(s), %.3g J attributed to %q\n",
		st.EvalRequests, st.MemoHits, st.Clients[c.ID].MeanJ, c.ID)
}
