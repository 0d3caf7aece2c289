// Command dlrmworker is one rank of a multi-process training run: N
// processes, each dialing the rendezvous address with its own -rank,
// together execute the same scenario one in-process run executes with
// goroutine ranks — and report bit-identical losses. Rank 0 listens at
// -addr; every other rank dials it, so start order is free.
//
// A 4-rank run on loopback:
//
//	for r in 0 1 2 3; do
//	  dlrmworker -scenario examples/scenarios/tcp4.json -rank $r -addr 127.0.0.1:29400 &
//	done; wait
//
// Every worker prints a RESULT line with the final global loss (exact
// bits and decimal); rank 0's SIMTIME line carries the sim-time buckets
// and the overlapped clock.
// The -inproc flag instead runs the whole scenario in this one process
// over the in-process fabric — the baseline the CI smoke test compares
// worker output against, byte for byte.
//
// A scenario's fault plan (jitter and slow ranks) rides along: every
// worker loads the same spec, so rank 0 — where collective cost is
// computed — always has the plan, and the faulted run's RESULT and
// SIMTIME lines still match the in-process baseline bit for bit.
// Drop/rejoin events and checkpoints need the in-process elastic runner
// and are rejected for tcp specs at validation.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/cluster/tcptransport"
	"dlrmcomp/internal/scenario"
)

func main() {
	scenarioFile := flag.String("scenario", "", "JSON scenario.Spec file (required)")
	rank := flag.Int("rank", 0, "this worker's rank in [0, world)")
	world := flag.Int("world", 0, "world size (0 = the spec's resolved rank count; an explicit mismatch is an error)")
	addr := flag.String("addr", "127.0.0.1:29400", "rank 0's rendezvous address; rank 0 listens on it, the rest dial")
	inproc := flag.Bool("inproc", false, "run the whole scenario in this process over the in-process fabric (the conformance baseline); -rank/-world/-addr are ignored")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "how long to keep retrying the rendezvous dial while rank 0 comes up")
	flag.Parse()

	if *scenarioFile == "" {
		fmt.Fprintln(os.Stderr, "dlrmworker: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	s, err := scenario.LoadFile(*scenarioFile)
	if err != nil {
		fail(2, err)
	}

	if *inproc {
		// Same workload, in-process fabric: transport cannot change the
		// math, so this run is the byte-for-byte baseline.
		s.Transport = "inproc"
		res, err := scenario.Run(s)
		if err != nil {
			fail(1, err)
		}
		report("inproc", res)
		return
	}

	rs, err := s.Resolved()
	if err != nil {
		fail(2, err)
	}
	w := *world
	if w == 0 {
		w = rs.Ranks
	}
	if w != rs.Ranks {
		fail(2, fmt.Errorf("-world %d does not match the spec's %d ranks", w, rs.Ranks))
	}
	if *rank < 0 || *rank >= w {
		fail(2, fmt.Errorf("-rank %d outside world of %d", *rank, w))
	}

	ep, err := tcptransport.Dial(tcptransport.Options{
		Rank:        *rank,
		World:       w,
		Addr:        *addr,
		DialTimeout: *dialTimeout,
	})
	if err != nil {
		fail(1, err)
	}
	b, err := s.BuildWorker(ep)
	if err != nil {
		ep.Close()
		fail(2, err)
	}
	res, err := b.Run()
	if err != nil {
		b.Trainer.Close()
		fail(1, err)
	}
	// Sync the whole group before teardown so no worker's close-notify
	// races a slower worker's final collective.
	b.Trainer.Cluster().Run(func(r *cluster.Rank) { _ = r.Barrier() })
	if err := b.Trainer.Close(); err != nil {
		fail(1, err)
	}
	report(fmt.Sprintf("%d", *rank), res)
	reportTransport(*rank, ep)
}

// reportTransport prints one TRANSPORT line per peer when the transport
// keeps per-peer accounting (the TCP endpoint does; the interface keeps
// this command decoupled from the concrete type). Bytes include frame
// headers; micros are wall-clock on the socket — sends time the write
// calls, receives time only the payload reads, so barrier idle waits
// don't inflate them.
func reportTransport(rank int, ep any) {
	ins, ok := ep.(tcptransport.Instrumented)
	if !ok {
		return
	}
	for _, ps := range ins.TransportStats() {
		fmt.Printf("TRANSPORT rank=%d peer=%d sent_bytes=%d recv_bytes=%d sent_frames=%d recv_frames=%d send_micros=%d recv_micros=%d\n",
			rank, ps.Peer, ps.SentBytes, ps.RecvBytes, ps.SentFrames, ps.RecvFrames, ps.SendMicros, ps.RecvMicros)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "dlrmworker:", err)
	os.Exit(code)
}

// report prints the machine-checkable outcome: the final global loss as
// exact float bits (the conformance currency) plus decimal, the sim-time
// buckets in sorted order, and the overlapped clock (all complete on rank
// 0 and the in-process baseline; other ranks hold device costs only).
func report(tag string, res *scenario.Result) {
	last := float32(math.NaN())
	if n := len(res.Losses); n > 0 {
		last = res.Losses[n-1]
	}
	fmt.Printf("RESULT name=%s rank=%s steps=%d final_loss_bits=0x%08x final_loss=%g cr=%.6f\n",
		res.Spec.Name, tag, len(res.Losses), math.Float32bits(last), last, res.CompressionRatio)
	keys := make([]string, 0, len(res.SimTime))
	for k := range res.SimTime {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%dns", k, res.SimTime[k].Nanoseconds()))
	}
	fmt.Printf("SIMTIME rank=%s %s overlapped=%dns\n", tag, strings.Join(parts, ";"), res.OverlappedSimTime.Nanoseconds())
}
