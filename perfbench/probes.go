package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"ghba/internal/bloom"
	"ghba/internal/rpcnet"
	"ghba/internal/wal"
)

const (
	echoCalls    = 2000
	walAppends   = 200
	fprPerNode   = 5000
	heartbeatGap = 2 * time.Millisecond
	// walBatchRecords is the mutations one daemon receives per 256-op
	// vector: 30% of 256 ops spread over 12 daemons.
	walBatchRecords = 6
)

// echoRTT times rpcnet.Serve with an echo handler, called through a
// MuxClient with a path-sized payload: the transport-plus-codec floor
// under every prototype RPC. Returns the typical call in µs.
func echoRTT(payload string) (float64, error) {
	srv, err := rpcnet.Serve("127.0.0.1:0", func(_ uint8, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		return 0, fmt.Errorf("echo server: %w", err)
	}
	defer srv.Close()
	cl := rpcnet.NewMuxClient(srv.Addr(), rpcnet.MuxOptions{DialTimeout: 5 * time.Second, CallTimeout: 5 * time.Second})
	defer cl.Close()
	body := []byte(payload)
	ns := make([]int64, 0, echoCalls)
	for i := 0; i < echoCalls+100; i++ {
		t0 := time.Now()
		if _, err := cl.Call(1, body); err != nil {
			return 0, fmt.Errorf("echo call: %w", err)
		}
		if i >= 100 { // the first calls dial and warm the connection
			ns = append(ns, time.Since(t0).Nanoseconds())
		}
	}
	return typical(ns) / 1e3, nil
}

// walAppendSync times wal.Log.Append under SyncAlways in dir, for one
// record and for a walBatchRecords vector. Returns both typical calls in µs.
func walAppendSync(dir, path string) (one, batch float64, err error) {
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, 0, fmt.Errorf("open probe log: %w", err)
	}
	defer log.Close()
	rec := wal.Record{Op: wal.OpCreate, Path: path}
	vec := make([]wal.Record, walBatchRecords)
	for i := range vec {
		vec[i] = rec
	}
	var ones, vecs []int64
	for i := 0; i < walAppends; i++ {
		t0 := time.Now()
		if err := log.Append(rec); err != nil {
			return 0, 0, fmt.Errorf("probe append: %w", err)
		}
		t1 := time.Now()
		if err := log.Append(vec...); err != nil {
			return 0, 0, fmt.Errorf("probe batch append: %w", err)
		}
		ones = append(ones, t1.Sub(t0).Nanoseconds())
		vecs = append(vecs, time.Since(t1).Nanoseconds())
	}
	if err := log.Close(); err != nil {
		return 0, 0, fmt.Errorf("close probe log: %w", err)
	}
	return typical(ones) / 1e3, typical(vecs) / 1e3, nil
}

// fpr probes every node's local filter with never-created paths and
// returns the measured false-positive rate, the probe count, and the
// design rate of the filter geometry at its design load.
func (t *tracer) fpr(ns *namespace) (measured float64, probes int, design float64) {
	var pos int
	i := 0
	for _, n := range t.nodes {
		f := n.LocalFilter()
		design = bloom.FalsePositiveRate(f.M(), engineConfig(workload{}, 0).Node.ExpectedFiles, f.K())
		for j := 0; j < fprPerNode; j++ {
			d := bloom.NewDigestString(ns.absent(i))
			i++
			if f.ContainsDigest(&d) {
				pos++
			}
		}
	}
	return float64(pos) / float64(i), i, design
}

// heartbeats samples Cluster().Heartbeat round-robin while the load runs,
// until stop is closed. Heartbeats take the daemon mutex like every opcode,
// so they measure lock wait plus transport.
func (e *env) heartbeats(ctx context.Context, stop <-chan struct{}) (ns []int64, err error) {
	c := e.proto.Cluster()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return ns, nil
		case <-time.After(heartbeatGap):
		}
		t0 := time.Now()
		if _, err := c.Heartbeat(ctx, e.ids[i%len(e.ids)]); err != nil {
			return ns, fmt.Errorf("heartbeat: %w", err)
		}
		ns = append(ns, time.Since(t0).Nanoseconds())
	}
}

// startHeartbeats runs heartbeats in a goroutine; the returned function
// stops it and waits for its samples.
func (e *env) startHeartbeats(ctx context.Context) func() ([]int64, error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ns []int64
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		ns, err = e.heartbeats(ctx, stop)
	}()
	return func() ([]int64, error) {
		close(stop)
		wg.Wait()
		return ns, err
	}
}

func median(xs []int64) float64 { return quantile(xs, 0.5) }

// typical is the mean of xs without its lowest and highest tenth (xs is
// sorted in place): robust to the preemptions a probe suffers on a busy
// host, like a median, but it keeps the digits of every sample instead of
// snapping to one nanosecond value.
func typical(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	cut := len(xs) / 10
	mid := xs[cut : len(xs)-cut]
	var sum int64
	for _, x := range mid {
		sum += x
	}
	return float64(sum) / float64(len(mid))
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile[T int64 | uint32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	return float64(xs[max(0, min(i, len(xs)-1))])
}
