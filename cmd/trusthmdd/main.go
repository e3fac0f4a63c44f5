// Command trusthmdd is the trusted-HMD serving daemon: it loads one or
// more gob-saved detectors (train them with `trusthmd -save` or the
// pkg/detector Save API) into a hot-swappable serve.Fleet and serves
// assessment traffic over HTTP — single-sample requests, client batches,
// and NDJSON streams of raw DVFS states — while shards can be
// loaded, replaced and unloaded without restarting.
//
// Endpoints: POST /v1/assess, POST /v1/assess/batch, POST /v1/assess/stream,
// GET|POST /v1/models, GET|DELETE /v1/models/{name}, GET /v1/verdicts,
// GET /v1/cluster, GET /healthz, GET /stats.
//
// Usage (`trusthmdd -h` lists every flag; README's flag tables mirror it
// and a test holds the two together):
//
//	trusthmd -save det.gob                          # train once
//	trusthmdd -load det.gob                         # serve it as "default"
//	trusthmdd -model dvfs=det.gob -model alt=b.gob  # named shard fleet
//	curl -s localhost:8080/v1/assess -d '{"features":[...]}'
//
// Boot is one path: bindFlags binds the command line straight into a
// daemonConfig (whose fields are the serving packages' own config
// structs), newDaemon builds every part from it, start sets the
// background work running and close tears it down in the one safe order.
// run only adds the listener and signal handling; the end-to-end tests
// boot the same daemon behind httptest.
//
// Every request is assessed on the goroutine that serves its connection,
// against the one shared model of its shard. -max-inflight bounds each
// shard's concurrent work — beyond it requests shed with 503 +
// Retry-After.
//
// With -admin-token set, POST /v1/models and DELETE /v1/models/{name}
// hot-manage the fleet (the token guards them; without the flag they are
// open); rolling out a rewritten gob file is one POST {"name","path"}.
// Every model the fleet installs — at boot, over the admin endpoint, from
// the cluster catalog or from the retrain loop — passes through the one
// serve.Config.PrepareDetector hook that applies -threshold, so a hot swap
// never silently drops the fleet-wide serving configuration.
//
// Clustering: -coordinator starts a new cluster, -join http://peer:8080
// joins a running one (either needs -advertise, the URL peers reach this
// node at; -node-id defaults to the hostname). Clustered nodes form one
// fleet: any node serves any request (non-local shards are forwarded to
// their owner), POST /v1/models on any node rolls the model out two-phase
// to every member, NDJSON streams survive the death of the node computing
// them, and a joiner may boot with no models at all — the cluster catalog
// supplies its shards on demand. GET /v1/cluster shows the node's view.
// The /cluster/v1/* node-to-node API shares -admin-token.
//
// The closed loop: -verdict-dir persists every served verdict to an
// embedded append-only segment store (queryable over GET /v1/verdicts,
// surviving restarts via crash-safe recovery); telemetry arrives through
// the assess endpoints, drop-directory CSV included (`trusthmd push -dir D
// -addr URL` posts it to /v1/assess/batch); -auto-retrain tails the
// verdict store for per-device entropy drift and, on sustained drift,
// retrains on its own tail goroutine on the base set (-retrain-data) plus
// the drifting device's rejected-verdict forensics and hot-swaps the
// result in — zero downtime, no operator. It runs standalone only: a clustered
// node installs only what the cluster catalog commits, and a local
// retrain would be undone the moment its shard moved to another node.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"trusthmd/pkg/cluster"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"

	// Classifier families beyond the pkg/detector built-ins are enabled by
	// blank import: their init registers the family and its gob prototypes,
	// which Load needs before it can decode saved ensembles of that family.
	// Out-of-tree modules plug their own families into a custom daemon the
	// same way.
	_ "trusthmd/pkg/model/gbm"
)

func main() {
	var cfg daemonConfig
	bindFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "trusthmdd:", err)
		os.Exit(1)
	}
}

// daemonConfig is everything that parameterises one daemon. Its fields are
// the packages' own config structs, bound straight to the command line by
// bindFlags; only values no package owns (listen address, model paths,
// fleet-wide overrides, feature switches) live on the struct itself.
// Tests build one by hand and boot it through newDaemon like run does.
type daemonConfig struct {
	addr            string
	loadPath        string
	models          modelFlags
	threshold       float64
	shutdownTimeout time.Duration

	serve serve.Config

	// verdictDir enables the verdict store (and GET /v1/verdicts).
	verdictDir string
	verdicts   verdictstore.Config

	// cluster is live when Coordinator or Join is set.
	cluster cluster.Config

	// autoRetrain enables the drift-driven retrain controller; retrainData
	// is the base training-set CSV it folds into every round.
	autoRetrain bool
	retrainData string
	retrain     serve.RetrainConfig
}

// bindFlags declares the daemon's command line on fs, each flag bound to
// the config field it sets. README's flag tables mirror it (a test holds
// them to it).
func bindFlags(fs *flag.FlagSet, cfg *daemonConfig) {
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.loadPath, "load", "", "serve a single saved detector under the name \"default\"")
	fs.Var(&cfg.models, "model", "name=path of a saved detector shard (repeatable)")
	fs.StringVar(&cfg.serve.DefaultModel, "default", "", "shard serving requests that omit \"model\" and \"device\"")
	fs.IntVar(&cfg.serve.MaxInflight, "max-inflight", 1024, "per-shard cap on concurrent work (assessments running plus batch samples); beyond it requests are shed with 503 + Retry-After (negative = unbounded)")
	fs.Int64Var(&cfg.serve.MaxBodyBytes, "max-body", 8<<20, "request body size cap in bytes (JSON assessment endpoints)")
	fs.Int64Var(&cfg.serve.MaxAdminBodyBytes, "max-admin-body", 64<<20, "POST /v1/models body cap in bytes (inline model uploads)")
	fs.IntVar(&cfg.serve.MaxBatchSamples, "max-batch-samples", 4096, "largest accepted client-side batch")
	fs.IntVar(&cfg.serve.MaxStreamLineBytes, "max-stream-line", 256<<10, "largest accepted NDJSON line on /v1/assess/stream, in bytes")
	fs.IntVar(&cfg.serve.MaxStreamWindow, "max-stream-window", 1<<16, "largest per-session window a stream header may request")
	fs.DurationVar(&cfg.serve.StreamIdleTimeout, "stream-idle", 5*time.Minute, "cut an NDJSON stream whose client sends nothing for this long (negative disables)")
	fs.Float64Var(&cfg.threshold, "threshold", -1, "override the rejection threshold on every shard (<0 keeps each model's saved threshold)")
	fs.StringVar(&cfg.serve.AdminToken, "admin-token", "", "bearer token guarding POST /v1/models and DELETE /v1/models/{name} (empty leaves them open)")
	fs.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")

	fs.StringVar(&cfg.verdictDir, "verdict-dir", "", "persist every served verdict to this directory (append-only segment store; enables GET /v1/verdicts)")
	fs.Int64Var(&cfg.verdicts.SegmentBytes, "verdict-segment-bytes", 4<<20, "verdict-store segment size before rotation, in bytes")
	fs.IntVar(&cfg.verdicts.MaxSegments, "verdict-retain", 16, "sealed verdict segments retained; beyond it the oldest segment is dropped")
	fs.IntVar(&cfg.verdicts.SyncEvery, "verdict-sync-every", 0, "verdict-store durability: 0 group-commits appends off the serving path (a crash loses at most one uncommitted group), N>0 writes each record synchronously and fsyncs every N records")

	fs.StringVar(&cfg.cluster.NodeID, "node-id", "", "cluster identity of this node (default: hostname)")
	fs.StringVar(&cfg.cluster.Advertise, "advertise", "", "base URL other cluster nodes reach this node at, e.g. http://10.0.0.5:8080 (required with -coordinator or -join)")
	fs.BoolVar(&cfg.cluster.Coordinator, "coordinator", false, "start this node as the cluster coordinator (for the cluster's lifetime: no follower takes over)")
	fs.StringVar(&cfg.cluster.Join, "join", "", "advertise URL of a running cluster member to join (exactly one of -coordinator/-join)")
	fs.DurationVar(&cfg.cluster.Heartbeat, "heartbeat", time.Second, "cluster heartbeat and membership-sweep interval")

	fs.BoolVar(&cfg.autoRetrain, "auto-retrain", false, "tail the verdict store for per-device drift and hot-swap a background-retrained model (needs -verdict-dir and -retrain-data; standalone only, refused with -coordinator/-join)")
	fs.StringVar(&cfg.retrainData, "retrain-data", "", "base training-set CSV (datagen/WriteCSV format) folded into every -auto-retrain round")
	fs.StringVar(&cfg.retrain.Model, "retrain-model", "", "shard supervised by -auto-retrain (default: the -default shard, or the only one)")
	fs.DurationVar(&cfg.retrain.Interval, "retrain-interval", time.Second, "verdict-store tail cadence for -auto-retrain")
	fs.IntVar(&cfg.retrain.Drift.Window, "retrain-window", 50, "per-device drift window (recent verdict entropies)")
	fs.IntVar(&cfg.retrain.Sustain, "retrain-sustain", 3, "consecutive alarmed observations before the controller acts")
	fs.IntVar(&cfg.retrain.Quorum, "retrain-quorum", 25, "rejected-verdict forensics required before a retrain round fires")
	fs.DurationVar(&cfg.retrain.Cooldown, "retrain-cooldown", time.Minute, "minimum gap between drift-driven retrain rounds, in verdict time (from one round's trigger record to the next)")
}

// modelFlags collects repeated -model name=path specs. Duplicate shard
// names are rejected at flag-parse time: the last-one-wins behaviour of a
// plain map would silently serve the wrong model.
type modelFlags []modelSpec

type modelSpec struct{ name, path string }

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, s := range *m {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	name, path = strings.TrimSpace(name), strings.TrimSpace(path)
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	for _, s := range *m {
		if s.name == name {
			return fmt.Errorf("duplicate model name %q", name)
		}
	}
	*m = append(*m, modelSpec{name: name, path: path})
	return nil
}

// overrides builds the detector-preparation hook applying the fleet-wide
// -threshold flag (negative keeps each model's saved threshold). The fleet
// runs it on every install, so a hot swap keeps the daemon's
// configuration.
func overrides(threshold float64) func(*detector.Detector) (*detector.Detector, error) {
	return func(det *detector.Detector) (*detector.Detector, error) {
		if threshold < 0 {
			return det, nil
		}
		return det.WithOptions(detector.WithThreshold(threshold))
	}
}

// allSpecs folds the -load shorthand into the spec list. A node joining a
// cluster may boot with no models at all: it installs shards on demand
// from the cluster catalog.
func allSpecs(loadPath string, specs modelFlags, allowEmpty bool) (modelFlags, error) {
	if loadPath != "" {
		for _, s := range specs {
			if s.name == "default" {
				return nil, fmt.Errorf("duplicate model name %q (-load serves under that name)", s.name)
			}
		}
		specs = append(modelFlags{{name: "default", path: loadPath}}, specs...)
	}
	if len(specs) == 0 && !allowEmpty {
		return nil, errors.New("no models: train one with `trusthmd -save det.gob`, then pass -load det.gob or -model name=det.gob")
	}
	return specs, nil
}

// clustered reports whether the cluster flags ask for a fleet member.
func (c *daemonConfig) clustered() bool { return c.cluster.Coordinator || c.cluster.Join != "" }

// agentConfig validates the cluster flags into the agent's config. The
// node-to-node surface inherits the admin token, so a cluster is never
// more open than its admin endpoints.
func (c *daemonConfig) agentConfig() (cluster.Config, error) {
	acfg := c.cluster
	if acfg.Advertise == "" {
		return cluster.Config{}, errors.New("clustering needs -advertise (the URL other nodes reach this one at)")
	}
	if acfg.NodeID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			return cluster.Config{}, errors.New("cannot derive -node-id from hostname; pass it explicitly")
		}
		acfg.NodeID = host
	}
	acfg.Advertise = strings.TrimRight(acfg.Advertise, "/")
	acfg.Token = c.serve.AdminToken
	acfg.Logf = logStdout
	return acfg, nil
}

// logStdout and logStderr are the Logf hooks the daemon hands its parts:
// lifecycle lines to stdout, trouble to stderr under the program name.
func logStdout(format string, args ...any) { fmt.Printf(format+"\n", args...) }
func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trusthmdd: "+format+"\n", args...)
}

// loadModels decodes every resolved shard spec. The fleet prepares them
// as it installs them, like every later install.
func loadModels(specs modelFlags) (map[string]*detector.Detector, error) {
	out := make(map[string]*detector.Detector, len(specs))
	for _, s := range specs {
		f, err := os.Open(s.path)
		if err != nil {
			return nil, err
		}
		det, err := detector.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", s.name, err)
		}
		// Duplicate names cannot reach here: modelFlags.Set rejects them
		// at flag-parse time and allSpecs rejects -load vs -model
		// collisions on "default".
		out[s.name] = det
	}
	return out, nil
}

// supervisedShard resolves which shard -auto-retrain watches: the
// explicit -retrain-model, else the -default shard, else the only one.
func supervisedShard(explicit, defName string, resolved modelFlags) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if defName != "" {
		return defName, nil
	}
	if len(resolved) == 1 {
		return resolved[0].name, nil
	}
	return "", errors.New("-auto-retrain needs -retrain-model (or -default) with more than one shard")
}

// loadBaseDataset reads the -retrain-data CSV (datagen / WriteCSV format).
func loadBaseDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("retrain data %s: %w", path, err)
	}
	return d, nil
}

// daemon is one booted trusthmdd: every long-lived part the config asks
// for, built by newDaemon, set running by start and torn down by close.
// run puts a listener and signal handling around it; tests put an
// httptest server around the same value.
type daemon struct {
	cfg daemonConfig
	// specs are the resolved -load/-model shards.
	specs modelFlags

	store *verdictstore.Store // nil without -verdict-dir
	fleet *serve.Fleet
	srv   *serve.Server
	// handler is what the listener serves: srv, plus the node-to-node API
	// under /cluster/ on a fleet member.
	handler http.Handler
	agent   *cluster.Agent           // nil standalone
	retrain *serve.RetrainController // nil without -auto-retrain

	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// newDaemon constructs everything in dependency order — verdict store,
// models, fleet, server, cluster agent, retrain controller —
// without starting any background work. A failed boot releases what was
// already built.
func newDaemon(cfg daemonConfig) (*daemon, error) {
	if cfg.autoRetrain && cfg.clustered() {
		// The controller swaps its own fleet, outside the catalog: when the
		// shard moves, the next owner installs the committed model and the
		// retrain is silently undone.
		return nil, errors.New("-auto-retrain cannot run with -coordinator or -join: a clustered node installs only what the cluster catalog commits")
	}
	if cfg.autoRetrain && (cfg.verdictDir == "" || cfg.retrainData == "") {
		return nil, errors.New("-auto-retrain needs -verdict-dir (the drift signal) and -retrain-data (the retraining base)")
	}
	// The fleet runs the fleet-wide overrides on every detector it installs.
	cfg.serve.PrepareDetector = overrides(cfg.threshold)
	d := &daemon{cfg: cfg}
	booted := false
	defer func() {
		if !booted {
			d.close()
		}
	}()
	// A cluster joiner may boot empty — the cluster catalog supplies its
	// shards.
	var err error
	if d.specs, err = allSpecs(cfg.loadPath, cfg.models, cfg.cluster.Join != ""); err != nil {
		return nil, err
	}

	// The verdict store outlives the fleet (the fleet taps verdicts into
	// it until its last assessment returns), so it opens first, closes last.
	if cfg.verdictDir != "" {
		if d.store, err = verdictstore.Open(cfg.verdictDir, cfg.verdicts); err != nil {
			return nil, err
		}
		st := d.store.Stats()
		fmt.Printf("verdict store %s: %d records recovered (%d segments, next seq %d)\n",
			cfg.verdictDir, st.Records, st.Segments, st.NextSeq)
		d.cfg.serve.Verdicts = d.store
	}

	models, err := loadModels(d.specs)
	if err != nil {
		return nil, err
	}
	if d.fleet, err = serve.NewFleet(models, d.cfg.serve); err != nil {
		return nil, err
	}
	for _, m := range d.fleet.Models() {
		fmt.Printf("loaded shard %-12s %s (%d members, %d features, threshold %.2f)\n",
			m.Name, m.Model, m.Members, m.InputDim, m.Threshold)
	}
	d.srv = serve.NewServer(d.fleet)
	d.handler = d.srv

	// Clustered: an Agent shares the listener with the serving mux (the
	// node-to-node API lives under /cluster/v1/) and hooks the server so
	// any node serves any request, swaps go fleet-wide, and streams
	// survive node death.
	if cfg.clustered() {
		acfg, err := cfg.agentConfig()
		if err != nil {
			return nil, err
		}
		if d.agent, err = cluster.New(acfg, d.fleet); err != nil {
			return nil, err
		}
		d.srv.AttachCluster(d.agent)
		mux := http.NewServeMux()
		mux.Handle("/cluster/", d.agent.Handler())
		mux.Handle("/", d.srv)
		d.handler = mux
	}

	if cfg.autoRetrain {
		rcfg := cfg.retrain
		rcfg.Store, rcfg.Fleet, rcfg.Logf = d.store, d.fleet, logStdout
		if rcfg.Base, err = loadBaseDataset(cfg.retrainData); err != nil {
			return nil, err
		}
		if rcfg.Model, err = supervisedShard(rcfg.Model, cfg.serve.DefaultModel, d.specs); err != nil {
			return nil, err
		}
		if d.retrain, err = serve.NewRetrainController(rcfg); err != nil {
			return nil, err
		}
		d.srv.AttachRetrain(d.retrain)
	}
	booted = true
	return d, nil
}

// start launches the background work: the retrain controller (stopped by
// ctx or close) and the cluster agent. Call it once d.handler is being
// served — a coordinator publishes its first table, a joiner dials -join
// (retrying briefly), and peers answer back on this node's own listener.
// After an error, close.
func (d *daemon) start(ctx context.Context) error {
	ctx, d.cancel = context.WithCancel(ctx)
	if d.retrain != nil {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := d.retrain.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				logStderr("retrain: %v", err)
			}
		}()
		fmt.Printf("auto-retrain watching shard %s (window %d, sustain %d, quorum %d, cooldown %v)\n",
			d.retrain.Stats().Model, d.cfg.retrain.Drift.Window, d.cfg.retrain.Sustain, d.cfg.retrain.Quorum, d.cfg.retrain.Cooldown)
	}
	if d.agent != nil {
		if err := d.agent.Start(); err != nil {
			return err
		}
		fmt.Printf("cluster node %s (%s) up as %s\n", d.agent.NodeID(), d.cfg.cluster.Advertise, d.agent.Role())
	}
	return nil
}

// close tears the daemon down in the one order that loses nothing: the
// cluster agent first (heartbeats stop; peers will declare this node dead
// and rebalance), then the retrain controller (whose Run returns only
// once its tick in progress is done, a round included, which may swap
// the fleet, so it needs the fleet alive), then the fleet, which waits
// out its assessments in flight, and the verdict store last, since those
// assessments still tap verdicts into it. The HTTP listener should be
// shut down first so no new requests arrive. Safe on a half-built daemon
// and idempotent; every call returns the store's close error.
func (d *daemon) close() error {
	d.closeOnce.Do(func() {
		if d.agent != nil {
			d.agent.Close()
		}
		if d.cancel != nil {
			d.cancel()
		}
		d.wg.Wait()
		if d.srv != nil {
			d.srv.Close()
		}
		if d.store != nil {
			d.closeErr = d.store.Close()
		}
	})
	return d.closeErr
}

func run(cfg daemonConfig) error {
	d, err := newDaemon(cfg)
	if err != nil {
		return err
	}
	defer d.close()
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: d.handler, ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("trusthmdd listening on %s (%d shard(s), max-inflight %d)\n",
		cfg.addr, d.fleet.Len(), cfg.serve.MaxInflight)
	if err := d.start(ctx); err != nil {
		httpSrv.Close()
		return err
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: wind down open NDJSON streams (each ends with its
	// summary line — without this, one connected stream client would pin
	// Shutdown for the whole budget), stop accepting connections and let
	// in-flight requests finish, then close the daemon.
	fmt.Println("\nshutting down...")
	d.srv.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shCtx)
	closeErr := d.close()
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	for _, st := range d.fleet.Stats() {
		fmt.Printf("shard %-12s v%d: %d requests, %d batch requests, %d stream sessions, %d shed, rejection rate %.1f%%\n",
			st.Model, st.Version, st.Requests, st.BatchRequests, st.StreamSessions, st.Shed, 100*st.RejectionRate)
	}
	if d.store != nil {
		st := d.store.Stats()
		fmt.Printf("verdict store: %d records live (%d appended this run, %d segments, %d bytes)\n",
			st.Records, st.Appended, st.Segments, st.Bytes)
	}
	return closeErr
}
