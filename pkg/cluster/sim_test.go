package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// Deterministic cluster simulation, in the manner of FoundationDB's
// simulation testing: N agents on one fake clock, single-threaded, with
// every node-to-node HTTP call delivered in-process by simTransport. One
// seed is one schedule of beats, one-way link cuts, message loss,
// crash-stop kills, heals and admin swaps posted to random nodes, and the
// same seed replays the same schedule exactly. After every step the
// cluster is held to the first three invariants, and after the final heal
// to the fourth:
//
//   - at most one live node acts as coordinator;
//   - no two nodes commit different bytes under one (name, catalog
//     version), whenever they commit them;
//   - a node's committed version for a name never goes down;
//   - every live node's table converges on the coordinator's.
//
// A failing seed prints the command that replays it.

var (
	simSeed  = flag.Int64("sim.seed", 0, "replay one TestClusterSim seed (0 runs the sweep)")
	simSeeds = flag.Int("sim.seeds", 1000, "how many seeds TestClusterSim sweeps")
)

const (
	simToken = "sim-secret"
	simBeat  = time.Second
	// simSteps is one schedule's length; simSettle is the quiet run after
	// the final heal: past DeadAfter, so a last kill is swept, plus beats
	// for followers to pull the table.
	simSteps  = 40
	simSettle = 10
	// simMaxDepth bounds a chain of nested calls (a relay reaching a node
	// that relays again): past it the call fails as a timeout would.
	simMaxDepth = 8
)

// simModels are the payloads swaps carry: small detectors that differ in
// their bytes (decoding dominates a swap, so they are kept tiny).
var (
	simOnce  sync.Once
	simBoot  *detector.Detector
	simBlobs [][]byte
	simErr   error
	simNames = []string{e2eModel, "alt"}
)

func simPayloads(t testing.TB) (*detector.Detector, [][]byte) {
	t.Helper()
	simOnce.Do(func() {
		s, err := gen.DVFSWithSizes(5, gen.Sizes{Train: 120, Test: 10, Unknown: 10})
		if err != nil {
			simErr = err
			return
		}
		for seed := int64(1); seed <= 4; seed++ {
			det, err := detector.New(s.Train,
				detector.WithModel("rf"), detector.WithEnsembleSize(2), detector.WithSeed(seed))
			if err != nil {
				simErr = err
				return
			}
			var buf bytes.Buffer
			if err := det.Save(&buf); err != nil {
				simErr = err
				return
			}
			if simBoot == nil {
				simBoot = det
			}
			simBlobs = append(simBlobs, buf.Bytes())
		}
	})
	if simErr != nil {
		t.Fatal(simErr)
	}
	return simBoot, simBlobs
}

type simNode struct {
	id    string
	srv   *serve.Server
	agent *Agent
	mux   *http.ServeMux
	dead  bool
	// seen caches the last committed payload checked per name, so the
	// ledger hashes a payload once per commit, not once per step.
	seen map[string]*byte
}

type simLink struct{ from, to string }

// sim is one simulated cluster. Everything but the transport's fault
// state belongs to the stepping goroutine; mu guards what a concurrent
// caller of the transport (TestClusterConcurrentSwapsDistinctVersions)
// reads.
type sim struct {
	t     testing.TB
	sched *rand.Rand // the schedule: which step comes next
	net   *rand.Rand // message loss, drawn per message
	now   time.Time
	nodes []*simNode
	host  map[string]*simNode

	mu    sync.Mutex
	cut   map[simLink]bool
	drop  float64
	trace []string

	// gate, when set, runs before a request is delivered.
	gate func(from, to string, r *http.Request)

	ledger map[string]map[uint64]simCommit
	high   map[string]map[string]uint64 // node -> name -> highest committed
}

type simCommit struct {
	digest [32]byte
	node   string
}

type simDepthKey struct{}

var errSimLost = errors.New("sim: message lost")

// simTransport delivers one node's outgoing HTTP in-process: the target
// node's mux answers into a recorder on the caller's goroutine. A one-way
// cut from A to B loses every message A sends B: A's requests to B, and
// A's answers to B's requests.
type simTransport struct {
	s    *sim
	from string
}

func (tr simTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s := tr.s
	depth, _ := r.Context().Value(simDepthKey{}).(int)
	if depth >= simMaxDepth {
		return nil, fmt.Errorf("sim: %s: call chain %d deep", r.URL, depth)
	}
	to := s.host[r.URL.Host]
	if !s.passes(tr.from, to, r.URL.Path, "request") {
		return nil, errSimLost
	}
	if s.gate != nil {
		s.gate(tr.from, to.id, r)
	}
	in := r.Clone(context.WithValue(r.Context(), simDepthKey{}, depth+1))
	in.RequestURI = r.URL.RequestURI()
	in.RemoteAddr = tr.from
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	to.mux.ServeHTTP(rec, in)
	back := s.node(tr.from)
	if !s.passes(to.id, back, r.URL.Path, "answer") {
		return nil, errSimLost
	}
	return rec.Result(), nil
}

// passes decides whether one message from -> to arrives, logging a loss.
func (s *sim) passes(from string, to *simNode, path, what string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case to == nil || to.dead:
	case s.cut[simLink{from, to.id}]:
	case s.drop > 0 && s.net.Float64() < s.drop:
	default:
		return true
	}
	dst := "?"
	if to != nil {
		dst = to.id
	}
	s.tracefLocked("  lost %s %s->%s %s", what, from, dst, path)
	return false
}

func (s *sim) tracef(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracefLocked(format, args...)
}

func (s *sim) tracefLocked(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf("[t=%3ds] ", s.now.Unix()-simEpoch.Unix())+fmt.Sprintf(format, args...))
}

var simEpoch = time.Unix(1_000_000, 0)

func simHost(id string) string { return id + ".sim" }

func simAddr(id string) string { return "http://" + simHost(id) }

func (s *sim) node(id string) *simNode { return s.host[simHost(id)] }

// newSim boots n nodes, n1..nn, with node n<coord+1> as the coordinator
// holding the boot model; the rest join it empty. The caller closes it.
func newSim(t testing.TB, seed int64, n, coord int) *sim {
	t.Helper()
	s := &sim{
		t:      t,
		sched:  rand.New(rand.NewSource(seed)),
		net:    rand.New(rand.NewSource(^seed)),
		now:    simEpoch,
		host:   make(map[string]*simNode),
		cut:    make(map[simLink]bool),
		ledger: make(map[string]map[uint64]simCommit),
		high:   make(map[string]map[string]uint64),
	}
	coordID := fmt.Sprintf("n%d", coord+1)
	s.boot(coordID, "")
	for i := 1; i <= n; i++ {
		if id := fmt.Sprintf("n%d", i); id != coordID {
			s.boot(id, simAddr(coordID))
		}
	}
	sort.Slice(s.nodes, func(i, j int) bool { return s.nodes[i].id < s.nodes[j].id })
	return s
}

// boot starts one node the way cmd/trusthmdd wires it — a serve.Server
// and an Agent behind one mux — as the coordinator when join is empty.
func (s *sim) boot(id, join string) {
	var models map[string]*detector.Detector
	if join == "" {
		det, _ := simPayloads(s.t)
		models = map[string]*detector.Detector{e2eModel: det}
	}
	fleet, err := serve.NewFleet(models, serve.Config{AdminToken: simToken})
	if err != nil {
		s.t.Fatal(err)
	}
	srv := serve.NewServer(fleet)
	agent, err := New(Config{
		NodeID:      id,
		Advertise:   simAddr(id),
		Coordinator: join == "",
		Join:        join,
		Heartbeat:   simBeat,
		Token:       simToken,
		Client:      &http.Client{Transport: simTransport{s: s, from: id}},
		Logf:        func(format string, args ...any) { s.tracef("  "+id+": "+format, args...) },
		now:         func() time.Time { return s.now },
	}, fleet)
	if err != nil {
		s.t.Fatal(err)
	}
	srv.AttachCluster(agent)
	mux := http.NewServeMux()
	mux.Handle("/cluster/", agent.Handler())
	mux.Handle("/", srv)
	n := &simNode{id: id, srv: srv, agent: agent, mux: mux, seen: make(map[string]*byte)}
	s.nodes = append(s.nodes, n)
	s.host[simHost(id)] = n
	if err := agent.boot(); err != nil {
		s.t.Fatalf("booting %s: %v", id, err)
	}
}

func (s *sim) close() {
	for _, n := range s.nodes {
		n.srv.Close()
	}
}

func (s *sim) live() []*simNode {
	var out []*simNode
	for _, n := range s.nodes {
		if !n.dead {
			out = append(out, n)
		}
	}
	return out
}

// beat advances the clock one heartbeat and ticks every live node, in an
// order the schedule picks.
func (s *sim) beat() {
	s.now = s.now.Add(simBeat)
	live := s.live()
	s.sched.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, n := range live {
		n.agent.tick(s.now)
	}
}

func (s *sim) setCut(from, to string, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if on {
		s.cut[simLink{from, to}] = true
	} else {
		delete(s.cut, simLink{from, to})
	}
}

func (s *sim) heal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut = make(map[simLink]bool)
	s.drop = 0
}

func (s *sim) kill(n *simNode) {
	s.mu.Lock()
	n.dead = true
	s.mu.Unlock()
}

// swap posts an admin model load to node n, the way a client would.
func (s *sim) swap(n *simNode, name string, blob []byte) (int, string) {
	body, err := json.Marshal(serve.LoadModelRequest{Name: name, Data: blob})
	if err != nil {
		s.t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/models", bytes.NewReader(body))
	r.Header.Set("Authorization", "Bearer "+simToken)
	w := httptest.NewRecorder()
	n.mux.ServeHTTP(w, r)
	return w.Code, strings.TrimSpace(w.Body.String())
}

// step draws and runs one schedule step.
func (s *sim) step() {
	_, blobs := simPayloads(s.t)
	live := s.live()
	pick := func() *simNode { return s.nodes[s.sched.Intn(len(s.nodes))] }
	switch p := s.sched.Float64(); {
	case p < 0.10:
		from, to := pick(), pick()
		if from != to {
			s.tracef("cut %s->%s", from.id, to.id)
			s.setCut(from.id, to.id, true)
			return
		}
	case p < 0.14:
		s.tracef("heal")
		s.heal()
		return
	case p < 0.20:
		d := []float64{0, 0.05, 0.2}[s.sched.Intn(3)]
		s.tracef("drop %.2f", d)
		s.mu.Lock()
		s.drop = d
		s.mu.Unlock()
		return
	case p < 0.23:
		if len(live) > 2 {
			n := live[s.sched.Intn(len(live))]
			s.tracef("kill %s (%s)", n.id, n.agent.Role())
			s.kill(n)
			return
		}
	case p < 0.31:
		n := live[s.sched.Intn(len(live))]
		name := simNames[s.sched.Intn(len(simNames))]
		blob := s.sched.Intn(len(blobs))
		s.tracef("swap %s=blob%d via %s", name, blob, n.id)
		code, body := s.swap(n, name, blobs[blob])
		s.tracef("  -> %d %s", code, body)
		return
	}
	s.tracef("beat")
	s.beat()
}

// check holds the cluster to the invariants, returning the first breach.
func (s *sim) check() error {
	var coords []string
	for _, n := range s.live() {
		if n.agent.Role() == "coordinator" {
			coords = append(coords, n.id)
		}
	}
	if len(coords) > 1 {
		return fmt.Errorf("%d nodes act as coordinator: %v", len(coords), coords)
	}
	for _, n := range s.nodes {
		if n.dead {
			continue
		}
		committed := make(map[string]bool)
		high := s.high[n.id]
		if high == nil {
			high = make(map[string]uint64)
			s.high[n.id] = high
		}
		for _, m := range n.agent.cat.committedModels() {
			committed[m.Name] = true
			if m.Version < high[m.Name] {
				return fmt.Errorf("%s: committed %s went down from v%d to v%d", n.id, m.Name, high[m.Name], m.Version)
			}
			high[m.Name] = m.Version
			if len(m.Data) > 0 && n.seen[m.Name] == &m.Data[0] {
				continue
			}
			if len(m.Data) > 0 {
				n.seen[m.Name] = &m.Data[0]
			}
			byVersion := s.ledger[m.Name]
			if byVersion == nil {
				byVersion = make(map[uint64]simCommit)
				s.ledger[m.Name] = byVersion
			}
			d := sha256.Sum256(m.Data)
			first, ok := byVersion[m.Version]
			if !ok {
				byVersion[m.Version] = simCommit{digest: d, node: n.id}
			} else if first.digest != d {
				return fmt.Errorf("%s committed %s v%d with bytes %x, %s with %x",
					first.node, m.Name, m.Version, first.digest[:4], n.id, d[:4])
			}
		}
		for name, v := range high {
			if !committed[name] && v > 0 {
				return fmt.Errorf("%s: committed %s went down from v%d to none", n.id, name, v)
			}
		}
	}
	return nil
}

// converged checks the last invariant after the final heal: every live
// node holds the live coordinator's table (with none alive there is no
// one to converge on, and the members keep serving their last tables).
func (s *sim) converged() error {
	var coord *simNode
	for _, n := range s.live() {
		if n.agent.Role() == "coordinator" {
			coord = n
		}
	}
	if coord == nil {
		return nil
	}
	want := coord.agent.view.Load().table
	for _, n := range s.live() {
		if got := n.agent.view.Load().table; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s holds table epoch %d %v, coordinator %s epoch %d %v",
				n.id, got.Epoch, got.Members, coord.id, want.Epoch, want.Members)
		}
	}
	return nil
}

// runSim plays one seed's whole schedule: 3-5 nodes, simSteps steps,
// then a heal and simSettle quiet beats. It returns the trace and the
// first invariant breach, with the trace that led to it.
func runSim(t testing.TB, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(3)
	s := newSim(t, seed, n, rng.Intn(n))
	defer s.close()
	s.tracef("boot %d nodes, coordinator %s", n, s.coordinatorID())
	fail := func(err error) ([]string, error) {
		return s.trace, fmt.Errorf("seed %d: %v\n%s\nreplay: go test ./pkg/cluster -run 'TestClusterSim$' -sim.seed=%d -v",
			seed, err, strings.Join(s.trace, "\n"), seed)
	}
	for i := 0; i < simSteps; i++ {
		s.step()
		if err := s.check(); err != nil {
			return fail(err)
		}
	}
	s.tracef("heal (final)")
	s.heal()
	for i := 0; i < simSettle; i++ {
		s.beat()
		if err := s.check(); err != nil {
			return fail(err)
		}
	}
	if err := s.converged(); err != nil {
		return fail(err)
	}
	return s.trace, nil
}

func (s *sim) coordinatorID() string {
	for _, n := range s.nodes {
		if n.agent.cfg.Coordinator {
			return n.id
		}
	}
	return ""
}

// TestClusterSim sweeps -sim.seeds schedules (or replays -sim.seed).
func TestClusterSim(t *testing.T) {
	if *simSeed != 0 {
		trace, err := runSim(t, *simSeed)
		if err != nil {
			t.Fatal(err)
		}
		t.Log("\n" + strings.Join(trace, "\n"))
		return
	}
	for seed := int64(1); seed <= int64(*simSeeds); seed++ {
		if _, err := runSim(t, seed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterSimSplitBrain replays the seed that split the brain while a
// follower could promote itself: four nodes under coordinator n2, a
// one-way cut n1->n2 from t=9s, so n1's heartbeats never arrive while
// n2's requests still reach n1. DeadAfter (6 s) after its first lost
// heartbeat n1 promoted itself, and two live nodes acted as coordinator.
// With the role fixed at boot, n1 keeps serving on its last table and the
// seed passes.
func TestClusterSimSplitBrain(t *testing.T) {
	trace, err := runSim(t, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the schedule this seed stands for, so a change to the schedule
	// generator cannot quietly turn it into some other run.
	joined := strings.Join(trace, "\n")
	for _, want := range []string{"boot 4 nodes, coordinator n2", "cut n1->n2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("seed 3 no longer schedules %q:\n%s", want, joined)
		}
	}
}

// TestClusterConcurrentSwapsDistinctVersions: two admin swaps of one name
// land on the coordinator at once. The transport holds the first at its
// first stage (n1 stages before the coordinator n2 itself) and lets the
// second run; only once the second has staged too, or after a grace
// period when it cannot get that far, is the first released. Each swap
// must take its own catalog version, and every node must hold one set of
// bytes per version.
func TestClusterConcurrentSwapsDistinctVersions(t *testing.T) {
	_, blobs := simPayloads(t)
	s := newSim(t, 1, 3, 1)
	t.Cleanup(s.close)
	coord := s.node("n2")

	var mu sync.Mutex
	stages := 0
	held, second, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.gate = func(from, to string, r *http.Request) {
		if r.URL.Path != "/cluster/v1/stage" || to != "n1" {
			return
		}
		mu.Lock()
		stages++
		k := stages
		mu.Unlock()
		switch k {
		case 1:
			close(held)
			<-release
		case 2:
			close(second)
		}
	}

	type answer struct {
		code int
		body string
	}
	answers := make(chan answer, 2)
	post := func(blob []byte) {
		code, body := s.swap(coord, e2eModel, blob)
		answers <- answer{code, body}
	}
	go post(blobs[1])
	<-held
	go post(blobs[2])
	select {
	case <-second:
	case <-time.After(200 * time.Millisecond): // the second waits its turn
	}
	close(release)

	versions := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		a := <-answers
		var sw SwapResponse
		if a.code != http.StatusOK || json.Unmarshal([]byte(a.body), &sw) != nil {
			t.Fatalf("swap answered %d: %s", a.code, a.body)
		}
		versions[sw.Version] = true
	}
	if len(versions) != 2 {
		t.Fatalf("two swaps took one catalog version: %v", versions)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, n := range s.nodes {
		_, data, _ := n.agent.cat.get(e2eModel)
		if want == nil {
			want = data
		} else if !bytes.Equal(data, want) {
			t.Fatalf("%s serves other bytes than n1 after both swaps", n.id)
		}
	}
}
