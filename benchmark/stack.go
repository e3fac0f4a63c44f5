package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/cluster"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

// The program under test, booted in-process exactly as cmd/trusthmdd
// boots it with no flags beyond a model and a verdict directory: coalescer
// MaxBatch 32 / MaxWait 2ms, 4096-entry result cache, one replica, verdict
// store attached in group-commit mode, cluster heartbeat 1s. Every zero
// Config below is deliberate — the benchmark measures the defaults.

const (
	// modelName is the one shard every serving workload addresses.
	modelName = "dvfs-rf"
	// Training is part of the program, not of the load: its seeds are
	// fixed so --seed changes the inputs and never the model.
	dataSeed  = 1
	trainSeed = 1
	// members is the paper's deployment ensemble size.
	members = 25
)

// shape is what a workload needs booted.
type shape int

const (
	shapeNode    shape = iota // one daemon
	shapeCluster              // two daemons, one holding the model
	shapeOffline              // a detector and nothing else
)

// node is one daemon: fleet, verdict store, HTTP transport on a loopback
// listener, and — in a cluster — its agent.
type node struct {
	url     string
	store   *verdictstore.Store
	fleet   *serve.Fleet
	srv     *serve.Server
	agent   *cluster.Agent
	hs      *http.Server
	stopped chan struct{}
}

// stack is one complete set-up of the program.
type stack struct {
	splits gen.Splits
	det    *detector.Detector
	nodes  []*node
	// entry is the node the load generator talks to; on a cluster it is
	// the node that does NOT own the shard, so every request forwards.
	entry *node
	// served counts verdicts the stack has answered since boot, for the
	// records-equal-verdicts check against the stores.
	served int64

	trainTime, loadTime, total time.Duration
}

// setUp boots the program from nothing and verifies its first verdict.
// Everything in here is set-up time; generating the load is not.
func setUp(sh shape, hpc gen.Sizes, dir string, client *http.Client, tr *tracer) (st *stack, err error) {
	start := time.Now()
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()

	if sh == shapeOffline {
		st.splits, err = gen.HPCWithSizes(dataSeed, hpc)
	} else {
		st.splits, err = gen.DVFS(dataSeed)
	}
	if err != nil {
		return st, err
	}

	t := time.Now()
	trained, err := detector.New(st.splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(members), detector.WithSeed(trainSeed))
	if err != nil {
		return st, err
	}
	st.trainTime = time.Since(t)

	// Train once, serve many: the daemon serves what Load decodes, so the
	// benchmark does too.
	var blob bytes.Buffer
	if err = trained.Save(&blob); err != nil {
		return st, err
	}
	t = time.Now()
	if st.det, err = detector.Load(bytes.NewReader(blob.Bytes())); err != nil {
		return st, err
	}
	st.loadTime = time.Since(t)
	if sh == shapeOffline {
		// The offline workload is one goroutine end to end: member votes are
		// not fanned out, so the pipeline stages add up to the batch call.
		// Training above still used every core.
		if st.det, err = st.det.WithOptions(detector.WithWorkers(1)); err != nil {
			return st, err
		}
	}

	probe := st.splits.Test.At(0).Features
	want, err := st.det.Assess(probe)
	if err != nil {
		return st, err
	}

	switch sh {
	case shapeOffline:
		var scratch detector.BatchScratch
		got, err := st.det.AssessInto(&scratch, probe)
		if err != nil {
			return st, err
		}
		if !sameResult(&got, &want) {
			return st, errors.New("set-up: first verdict differs from the oracle")
		}
	case shapeNode:
		n, err := st.boot("n1", dir, map[string]*detector.Detector{modelName: st.det}, nil, tr)
		if err != nil {
			return st, err
		}
		st.entry = n
	case shapeCluster:
		coord, err := st.boot("n1", dir, map[string]*detector.Detector{modelName: st.det},
			&cluster.Config{Coordinator: true}, tr)
		if err != nil {
			return st, err
		}
		joiner, err := st.boot("n2", dir, nil, &cluster.Config{Join: coord.url}, tr)
		if err != nil {
			return st, err
		}
		if err := st.converge(); err != nil {
			return st, err
		}
		owner := coord.agent.Status().(cluster.Status).OwnedShards
		st.entry = coord
		if len(owner) == 1 && owner[0] == modelName {
			st.entry = joiner
		}
	}

	if st.entry != nil {
		var v wireVerdict
		code, body, err := post(client, st.entry.url+"/v1/assess", assessBody(0, probe), new(bytes.Buffer), 0)
		if err != nil {
			return st, fmt.Errorf("set-up: first request: %w", err)
		}
		if code != http.StatusOK {
			return st, fmt.Errorf("set-up: first request answered %d: %s", code, body)
		}
		if err := scanAssess(body, &v); err != nil || !sameWire(&v, &want) {
			return st, fmt.Errorf("set-up: first verdict differs from the oracle: %s", body)
		}
		st.served++
	}
	st.total = time.Since(start)
	return st, nil
}

// boot starts one daemon on a fresh loopback port. cl is nil for a
// standalone node; otherwise its identity fields are filled in here.
func (st *stack) boot(id, dir string, models map[string]*detector.Detector, cl *cluster.Config, tr *tracer) (*node, error) {
	n := &node{stopped: make(chan struct{})}
	st.nodes = append(st.nodes, n)

	var err error
	if n.store, err = verdictstore.Open(filepath.Join(dir, id), verdictstore.Config{}); err != nil {
		return nil, err
	}
	if n.fleet, err = serve.NewFleet(models, serve.Config{Verdicts: n.store}); err != nil {
		return nil, err
	}
	n.srv = serve.NewServer(n.fleet)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()

	handler := http.Handler(n.srv)
	if cl != nil {
		cfg := *cl
		cfg.NodeID, cfg.Advertise = id, n.url
		cfg.Client = tr.forwardClient()
		if n.agent, err = cluster.New(cfg, n.fleet); err != nil {
			ln.Close()
			return nil, err
		}
		n.srv.AttachCluster(tr.tapHook(n.agent))
		mux := http.NewServeMux()
		mux.Handle("/cluster/", n.agent.Handler())
		mux.Handle("/", n.srv)
		handler = mux
	}
	n.hs = &http.Server{Handler: tr.tapHandler(handler), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(n.stopped)
		_ = n.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	if n.agent != nil {
		if err := n.agent.Start(); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// converge waits until every node sees every other alive.
func (st *stack) converge() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range st.nodes {
			if n.agent.StatsFields()["members_alive"] != len(st.nodes) {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("set-up: cluster did not converge")
		}
		time.Sleep(time.Millisecond)
	}
}

// appended sums the verdict records the stack's stores accepted.
func (st *stack) appended() int64 {
	var n int64
	for _, nd := range st.nodes {
		n += nd.store.Stats().Appended
	}
	return n
}

// forwards sums the requests nodes relayed to a peer.
func (st *stack) forwards() int64 {
	var n int64
	for _, nd := range st.nodes {
		if nd.agent != nil {
			n += nd.agent.StatsFields()["forwards_out"].(int64)
		}
	}
	return n
}

// close shuts the stack down in the daemon's order — agents, listeners,
// fleets, stores — and waits for every goroutine it started.
func (st *stack) close() {
	for _, n := range st.nodes {
		if n.agent != nil {
			n.agent.Close()
		}
	}
	for _, n := range st.nodes {
		if n.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = n.hs.Shutdown(ctx)
			cancel()
			<-n.stopped
		}
		if n.srv != nil {
			n.srv.Close()
		}
		if n.store != nil {
			_ = n.store.Close()
		}
	}
	st.nodes = nil
}

// workDir makes a private directory under root for one run's verdict
// stores and removes it again through the returned function.
func workDir(root string) (string, func(), error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}
