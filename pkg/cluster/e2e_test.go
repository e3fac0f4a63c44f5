package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// End-to-end cluster tests: 2-3 real nodes (each a full serve.Server plus
// cluster.Agent on an httptest listener), real HTTP between them. These
// pin the acceptance properties of the control plane: any node serves any
// request, a fleet-wide swap is atomic under load, and a node kill loses
// no requests and no stream — with decisions element-wise identical to an
// uninterrupted single-node run.

const (
	e2eToken = "cluster-e2e-secret"
	e2eModel = "dvfs-rf"
)

// Trained detectors are shared across tests (training dominates runtime;
// a trained Detector is immutable and safe for concurrent use).
var (
	e2eOnce sync.Once
	e2eDetA *detector.Detector // the boot model
	e2eDetB *detector.Detector // the swap target (different ensemble)
	e2eX    [][]float64
	e2eErr  error
)

func e2eDetectors(t testing.TB) (*detector.Detector, *detector.Detector, [][]float64) {
	t.Helper()
	e2eOnce.Do(func() {
		var s gen.Splits
		s, e2eErr = gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 140, Unknown: 40})
		if e2eErr != nil {
			return
		}
		e2eDetA, e2eErr = detector.New(s.Train,
			detector.WithModel("rf"), detector.WithEnsembleSize(11), detector.WithSeed(1))
		if e2eErr != nil {
			return
		}
		e2eDetB, e2eErr = detector.New(s.Train,
			detector.WithModel("rf"), detector.WithEnsembleSize(9), detector.WithSeed(7))
		if e2eErr != nil {
			return
		}
		e2eX = make([][]float64, s.Test.Len())
		for i := range e2eX {
			e2eX[i] = s.Test.At(i).Features
		}
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eDetA, e2eDetB, e2eX
}

// node is one cluster member: a serve.Server and an Agent sharing an
// httptest listener, the same wiring cmd/trusthmdd does.
type node struct {
	id    string
	srv   *serve.Server
	agent *Agent
	ts    *httptest.Server
	dead  bool
}

func (n *node) url() string { return n.ts.URL }

// kill is the SIGKILL equivalent: stop the agent's loops and yank the
// listener, force-closing established connections mid-flight.
func (n *node) kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.agent.Close()
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.srv.Close()
}

// startNode boots one member. models may be nil: a joiner without local
// models installs shards on demand from the cluster catalog.
func startNode(t testing.TB, id string, models map[string]*detector.Detector, coordinator bool, join string) *node {
	t.Helper()
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	fleet, err := serve.NewFleet(models, serve.Config{AdminToken: e2eToken})
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	srv := serve.NewServer(fleet)
	agent, err := New(Config{
		NodeID:      id,
		Advertise:   ts.URL,
		Coordinator: coordinator,
		Join:        join,
		Heartbeat:   25 * time.Millisecond,
		Token:       e2eToken,
		Logf:        t.Logf,
	}, srv.Fleet())
	if err != nil {
		ts.Close()
		srv.Close()
		t.Fatal(err)
	}
	srv.AttachCluster(agent)
	mux.Handle("/cluster/", agent.Handler())
	mux.Handle("/", srv)
	if err := agent.Start(); err != nil {
		ts.Close()
		srv.Close()
		t.Fatal(err)
	}
	n := &node{id: id, srv: srv, agent: agent, ts: ts}
	t.Cleanup(n.kill)
	return n
}

// startCluster boots a coordinator (holding the model) plus followers
// that join empty, and waits until every node's view lists all members
// alive.
func startCluster(t testing.TB, ids []string, coordID string, det *detector.Detector) map[string]*node {
	t.Helper()
	nodes := make(map[string]*node, len(ids))
	coord := startNode(t, coordID, map[string]*detector.Detector{e2eModel: det}, true, "")
	nodes[coordID] = coord
	for _, id := range ids {
		if id == coordID {
			continue
		}
		nodes[id] = startNode(t, id, nil, false, coord.url())
	}
	waitForMembers(t, nodes, len(ids))
	return nodes
}

// waitForMembers polls every live node's /stats until members_alive
// reaches want (table propagation is pull-based, so followers converge a
// heartbeat after the coordinator).
func waitForMembers(t testing.TB, nodes map[string]*node, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if n.dead {
				continue
			}
			st := getStats(t, n.url())
			if int(st["members_alive"].(float64)) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for id, n := range nodes {
				if !n.dead {
					t.Logf("node %s stats: %v", id, getStats(t, n.url()))
				}
			}
			t.Fatalf("cluster did not converge to %d alive members", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getStats(t testing.TB, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postAssess(url string, req serve.AssessRequest) (*serve.AssessResponse, int, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(url+"/v1/assess", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AssessResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, resp.StatusCode, err
	}
	return &out, resp.StatusCode, nil
}

func sameDecision(a serve.AssessResponse, b detector.Result) bool {
	return a.Prediction == b.Prediction &&
		a.Decision == b.Decision.String() &&
		math.Abs(a.Entropy-b.Entropy) < 1e-12
}

// TestClusterAnyNodeServesAnyRequest: explicit-model and device-keyed
// assessments through every node — owner or not — return decisions
// element-wise identical to direct detector calls, and the forward
// counters prove requests really crossed nodes.
func TestClusterAnyNodeServesAnyRequest(t *testing.T) {
	detA, _, X := e2eDetectors(t)
	ids := []string{"n1", "n2", "n3"}
	nodes := startCluster(t, ids, "n1", detA)

	want := make([]detector.Result, len(X))
	for i, x := range X {
		r, err := detA.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	// Round-robin the three nodes; alternate explicit model and device
	// keys so both routing paths (model name, device -> shard) are hit.
	urls := []string{nodes["n1"].url(), nodes["n2"].url(), nodes["n3"].url()}
	for i, x := range X {
		req := serve.AssessRequest{Features: x}
		if i%2 == 0 {
			req.Model = e2eModel
		} else {
			req.Device = fmt.Sprintf("device-%03d", i%17)
		}
		got, _, err := postAssess(urls[i%3], req)
		if err != nil {
			t.Fatalf("assess %d via %s: %v", i, urls[i%3], err)
		}
		if got.Model != e2eModel {
			t.Fatalf("assess %d answered by model %q", i, got.Model)
		}
		if !sameDecision(*got, want[i]) {
			t.Fatalf("assess %d: got %+v want %+v", i, got, want[i])
		}
	}

	// The shard has one owner, so at least one non-owner node forwarded.
	var in, out int64
	for _, n := range nodes {
		st := getStats(t, n.url())
		if st["node_id"].(string) != n.id {
			t.Fatalf("stats node_id %v on %s", st["node_id"], n.id)
		}
		role := st["role"].(string)
		if (n.id == "n1") != (role == "coordinator") {
			t.Fatalf("node %s reports role %q", n.id, role)
		}
		in += int64(st["forwards_in"].(float64))
		out += int64(st["forwards_out"].(float64))
	}
	if in == 0 || out == 0 {
		t.Fatalf("no forwarding happened (in=%d out=%d); routing is broken", in, out)
	}

	// GET /v1/cluster: exactly one node owns the shard.
	owners := 0
	for _, n := range nodes {
		resp, err := http.Get(n.url() + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.NodeID != n.id {
			t.Fatalf("/v1/cluster node_id %q on %s", st.NodeID, n.id)
		}
		for _, s := range st.OwnedShards {
			if s == e2eModel {
				owners++
			}
		}
	}
	if owners != 1 {
		t.Fatalf("shard %q has %d owners, want exactly 1", e2eModel, owners)
	}
}

// TestClusterFleetWideSwap: a POST /v1/models through a follower reaches
// every node two-phase, while sustained load through all nodes loses zero
// requests; afterwards every node answers with the NEW model's decisions.
func TestClusterFleetWideSwap(t *testing.T) {
	detA, detB, X := e2eDetectors(t)
	ids := []string{"n1", "n2", "n3"}
	nodes := startCluster(t, ids, "n1", detA)
	urls := []string{nodes["n1"].url(), nodes["n2"].url(), nodes["n3"].url()}

	wantB := make([]detector.Result, len(X))
	differs := false
	for i, x := range X {
		rb, err := detB.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		wantB[i] = rb
		ra, err := detA.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDecision(serve.AssessResponse{
			Prediction: ra.Prediction, Entropy: ra.Entropy, Decision: ra.Decision.String(),
		}, rb) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("detA and detB agree everywhere; the swap would be unobservable")
	}

	// Sustained load through all three nodes while the swap lands. Every
	// response must be 200 and match either the old or the new model —
	// nothing lost, nothing garbled.
	loadErrs := make(chan error, 3)
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopLoad := func() { stopOnce.Do(func() { close(stop) }) }
	defer stopLoad()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x := X[(i*7+w)%len(X)]
				got, _, err := postAssess(urls[(i+w)%3], serve.AssessRequest{Model: e2eModel, Features: x})
				if err != nil {
					loadErrs <- fmt.Errorf("load worker %d: %v", w, err)
					return
				}
				ra, _ := detA.Assess(x)
				rb, _ := detB.Assess(x)
				if !sameDecision(*got, ra) && !sameDecision(*got, rb) {
					loadErrs <- fmt.Errorf("load worker %d: answer matches neither model: %+v", w, got)
					return
				}
			}
		}(w)
	}

	// Serialise detB and push it through follower n2 (exercising the
	// relay to the coordinator).
	var buf bytes.Buffer
	if err := detB.Save(&buf); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.LoadModelRequest{Name: e2eModel, Data: buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, nodes["n2"].url()+"/v1/models", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+e2eToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet-wide swap: status %d: %s", resp.StatusCode, swapBody)
	}
	var sw SwapResponse
	if err := json.Unmarshal(swapBody, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Nodes != 3 || !sw.Replaced || sw.Name != e2eModel {
		t.Fatalf("swap response %+v, want all 3 nodes, replaced", sw)
	}

	stopLoad()
	wg.Wait()
	select {
	case err := <-loadErrs:
		t.Fatalf("request lost or garbled during the swap: %v", err)
	default:
	}

	// The swap returned, so the commit phase is complete everywhere:
	// every node must now answer with detB's decisions, no grace period.
	for i, url := range urls {
		for j := 0; j < 10; j++ {
			x := X[(i*10+j)%len(X)]
			got, _, err := postAssess(url, serve.AssessRequest{Model: e2eModel, Features: x})
			if err != nil {
				t.Fatal(err)
			}
			if !sameDecision(*got, wantB[(i*10+j)%len(X)]) {
				t.Fatalf("node %d answers old model after swap: %+v", i, got)
			}
		}
	}
}

// unauthenticated swaps must be rejected before any cluster traffic.
func TestClusterSwapRequiresAdminToken(t *testing.T) {
	detA, _, _ := e2eDetectors(t)
	nodes := startCluster(t, []string{"n1", "n2"}, "n1", detA)
	body, _ := json.Marshal(serve.LoadModelRequest{Name: e2eModel, Data: []byte("x")})
	resp, err := http.Post(nodes["n2"].url()+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated swap: status %d, want 401", resp.StatusCode)
	}
}

// TestClusterNodeKillLosslessFailover is the headline e2e: an NDJSON
// stream proxied to the shard owner survives a SIGKILL of that owner
// mid-stream — the session replays onto a ring successor and the decision
// sequence is element-wise identical to an uninterrupted run — and
// request traffic through the survivors keeps succeeding throughout.
func TestClusterNodeKillLosslessFailover(t *testing.T) {
	detA, _, X := e2eDetectors(t)
	ids := []string{"n1", "n2", "n3"}

	// The shard's owner is a pure function of the alive IDs, so compute it
	// up front and make some OTHER node the coordinator — the kill target
	// must be a non-coordinator for this scenario.
	victim := ring.New(ids, 0).Lookup(e2eModel)
	coordID := ""
	for _, id := range ids {
		if id != victim {
			coordID = id
			break
		}
	}
	nodes := startCluster(t, ids, coordID, detA)

	// The streaming entry point: a node that is neither the victim nor
	// the coordinator if possible, else the coordinator — any non-owner
	// proxies chunk pushes to the owner.
	entryID := ""
	for _, id := range ids {
		if id != victim {
			entryID = id
		}
	}
	entry := nodes[entryID]
	t.Logf("owner=%s coordinator=%s entry=%s", victim, coordID, entryID)

	// Baseline: an uninterrupted session over the same state sequence.
	const (
		levels  = 8
		window  = 16
		stride  = 4
		samples = 200
	)
	rng := rand.New(rand.NewSource(42))
	states := make([]int, samples)
	for i := range states {
		states[i] = rng.Intn(levels)
	}
	cfg := detector.StreamConfig{Levels: levels, Window: window, Stride: stride}
	base, err := detector.NewOnline(detA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantResults []detector.Result
	for _, st := range states {
		res, ok, err := base.Push(st)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			wantResults = append(wantResults, res)
		}
	}
	if len(wantResults) == 0 {
		t.Fatal("baseline produced no decisions; bad stream parameters")
	}

	// Open the stream through the entry node, feeding chunks by hand so
	// the kill lands mid-stream with precision.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, entry.url()+"/v1/assess/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type streamLine struct {
		res serve.StreamResult
		sum *serve.StreamSummary
	}
	lines := make(chan streamLine, samples)
	readErr := make(chan error, 1)
	go func() {
		defer close(lines)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			readErr <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			readErr <- fmt.Errorf("stream status %d: %s", resp.StatusCode, body)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var probe map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				readErr <- fmt.Errorf("bad stream line %q: %v", sc.Text(), err)
				return
			}
			if probe["error"] != nil {
				readErr <- fmt.Errorf("stream error line: %s", sc.Text())
				return
			}
			var ln streamLine
			if probe["done"] != nil {
				ln.sum = new(serve.StreamSummary)
				if err := json.Unmarshal(sc.Bytes(), ln.sum); err != nil {
					readErr <- err
					return
				}
			} else if err := json.Unmarshal(sc.Bytes(), &ln.res); err != nil {
				readErr <- err
				return
			}
			lines <- ln
		}
		if err := sc.Err(); err != nil {
			readErr <- err
		}
	}()

	writeLine := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(append(raw, '\n')); err != nil {
			t.Fatalf("writing stream: %v", err)
		}
	}
	writeLine(serve.StreamHeader{Model: e2eModel, Levels: levels, Window: window, Stride: stride})

	const chunk = 20
	half := samples / 2
	for off := 0; off < half; off += chunk {
		writeLine(serve.StreamSample{States: states[off : off+chunk]})
	}
	// Let the proxied pushes drain to the owner before the kill so the
	// first half's decisions are computed there.
	time.Sleep(300 * time.Millisecond)

	// SIGKILL the owner, then keep streaming and keep assessing through
	// the survivors: nothing may be lost.
	nodes[victim].kill()

	var killLoad sync.WaitGroup
	survivors := []string{}
	for _, id := range ids {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	loadErr := make(chan error, 1)
	killLoad.Add(1)
	go func() {
		defer killLoad.Done()
		for i := 0; i < 40; i++ {
			x := X[i%len(X)]
			url := nodes[survivors[i%2]].url()
			got, _, err := postAssess(url, serve.AssessRequest{Model: e2eModel, Features: x})
			if err != nil {
				loadErr <- fmt.Errorf("assess %d after kill via %s: %v", i, url, err)
				return
			}
			want, _ := detA.Assess(x)
			if !sameDecision(*got, want) {
				loadErr <- fmt.Errorf("assess %d after kill: got %+v want %+v", i, got, want)
				return
			}
		}
	}()

	for off := half; off < samples; off += chunk {
		writeLine(serve.StreamSample{States: states[off : off+chunk]})
	}
	pw.Close()

	// Collect the full decision stream and the summary.
	var got []serve.StreamResult
	var sum *serve.StreamSummary
	deadline := time.After(30 * time.Second)
	for sum == nil {
		select {
		case ln, ok := <-lines:
			if !ok {
				select {
				case err := <-readErr:
					t.Fatalf("stream ended early: %v", err)
				default:
					t.Fatal("stream ended without summary")
				}
			}
			if ln.sum != nil {
				sum = ln.sum
			} else {
				got = append(got, ln.res)
			}
		case err := <-readErr:
			t.Fatalf("stream failed: %v", err)
		case <-deadline:
			t.Fatalf("no summary after 30s (%d results so far)", len(got))
		}
	}
	killLoad.Wait()
	select {
	case err := <-loadErr:
		t.Fatalf("request traffic lost during the kill: %v", err)
	default:
	}

	// Element-wise identity with the uninterrupted baseline — the window
	// straddling the kill included.
	if len(got) != len(wantResults) {
		t.Fatalf("stream produced %d decisions, baseline %d", len(got), len(wantResults))
	}
	for i, g := range got {
		w := wantResults[i]
		if !sameDecision(g.AssessResponse, w) {
			t.Fatalf("decision %d diverged after failover: got %+v want %+v", i, g.AssessResponse, w)
		}
		if g.Seq != i+1 {
			t.Fatalf("decision %d has seq %d", i, g.Seq)
		}
	}
	if sum.Samples != samples || sum.Decisions != len(wantResults) {
		t.Fatalf("summary %+v, want %d samples / %d decisions", sum, samples, len(wantResults))
	}

	// The survivors eventually declare the victim dead and rebalance; the
	// shard keeps exactly one (new) owner.
	alive := map[string]*node{}
	for _, id := range survivors {
		alive[id] = nodes[id]
	}
	waitForMembers(t, alive, 2)
	for _, id := range survivors {
		got, _, err := postAssess(nodes[id].url(), serve.AssessRequest{Model: e2eModel, Features: X[0]})
		if err != nil {
			t.Fatalf("assess after rebalance via %s: %v", id, err)
		}
		want, _ := detA.Assess(X[0])
		if !sameDecision(*got, want) {
			t.Fatalf("post-rebalance decision diverged: %+v", got)
		}
	}
}

// TestClusterCoordinatorFailover is the real-HTTP smoke of coordinator
// loss; the simulator (sim_test.go) holds the protocol to its invariants
// under partitions. The coordinator is made the shard's owner and then
// killed: both followers keep serving detA's verdicts bit for bit from
// their last table (forwarding falls over to a ring successor), and an
// admin swap posted to a follower answers 503 with Retry-After, changing
// no node's catalog or fleet — swaps wait for the coordinator.
func TestClusterCoordinatorFailover(t *testing.T) {
	detA, detB, X := e2eDetectors(t)
	ids := []string{"n1", "n2", "n3"}
	// No wait for the tables to settle: a join returns the coordinator's
	// table, and any table serves.
	coordID := ring.New(ids, 0).Lookup(e2eModel)
	coord := startNode(t, coordID, map[string]*detector.Detector{e2eModel: detA}, true, "")
	var followers []*node
	for _, id := range ids {
		if id != coordID {
			followers = append(followers, startNode(t, id, nil, false, coord.url()))
		}
	}
	// Install the shard on both followers before the kill, so the catalog
	// and fleet compared below are the ones serving.
	for _, n := range followers {
		if err := n.agent.ensureLocal(e2eModel); err != nil {
			t.Fatal(err)
		}
	}

	coord.kill()

	for _, n := range followers {
		for i, x := range X[:20] {
			got, _, err := postAssess(n.url(), serve.AssessRequest{Model: e2eModel, Features: x})
			if err != nil {
				t.Fatalf("assess %d via %s after coordinator loss: %v", i, n.id, err)
			}
			want, _ := detA.Assess(x)
			if got.Prediction != want.Prediction || got.Decision != want.Decision.String() ||
				got.Entropy != want.Entropy || !reflect.DeepEqual(got.VoteDist, want.VoteDist) {
				t.Fatalf("assess %d via %s after coordinator loss: got %+v want %+v", i, n.id, got, want)
			}
		}
	}

	// The last joiner's table lists all three nodes, so it routed to the
	// dead owner and fell over.
	if last := followers[len(followers)-1]; last.agent.forwardFailovers.Load() == 0 {
		t.Fatalf("%s never fell over from the dead owner %s", last.id, coordID)
	}

	type state struct {
		catalog []CatalogModel
		models  []serve.ModelInfo
	}
	snapshot := func() []state {
		out := make([]state, len(followers))
		for i, n := range followers {
			out[i] = state{n.agent.cat.committedModels(), n.srv.Fleet().Models()}
		}
		return out
	}
	before := snapshot()
	var buf bytes.Buffer
	if err := detB.Save(&buf); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.LoadModelRequest{Name: e2eModel, Data: buf.Bytes()})
	req, _ := http.NewRequest(http.MethodPost, followers[0].url()+"/v1/models", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+e2eToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("swap without a coordinator: status %d, Retry-After %q: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), swapBody)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused swap changed a follower:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestClusterRefusedChunkSameOnEveryNode: a chunk carrying a state outside
// the header's levels is refused in the one stream loop before any session
// sees it, so the client reads the same lines whichever node it entered on
// — the stream-wide sample index, nothing of the chunk assessed, and no
// peer's internal URL in the error.
func TestClusterRefusedChunkSameOnEveryNode(t *testing.T) {
	detA, _, _ := e2eDetectors(t)
	ids := []string{"n1", "n2", "n3"}
	nodes := startCluster(t, ids, "n1", detA)
	body := `{"model":"dvfs-rf","levels":8,"window":16,"stride":4}` + "\n" +
		`{"states":[0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7,0,1,2,3]}` + "\n" +
		`{"states":[1,2,3,4,99]}` + "\n"
	var first string
	for _, id := range ids {
		resp, err := http.Post(nodes[id].url()+"/v1/assess/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := string(raw)
		if first == "" {
			first = got
		}
		if got != first {
			t.Fatalf("entry %s answered\n%s\nbut entry %s answered\n%s", id, got, ids[0], first)
		}
		lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
		if want := `{"error":"sample 24: state 99 outside [0,8)"}`; len(lines) != 3 || lines[2] != want {
			t.Fatalf("entry %s: want two decisions then %s, got\n%s", id, want, got)
		}
	}
}

// TestClusterRefusedBodySameOnEveryNode: the entry node routes a batch from
// a peek at its keys and forwards the bytes unparsed, so a body the owner
// refuses in its numbers or rows reads the same, status and bytes, through
// either node, as does a valid one; every body sent to the non-owner
// crosses to the owner, and every answer carries its length.
func TestClusterRefusedBodySameOnEveryNode(t *testing.T) {
	detA, _, X := e2eDetectors(t)
	ids := []string{"n1", "n2"}
	nodes := startCluster(t, ids, "n1", detA)
	owner := nodes[ring.New(ids, 0).Lookup(e2eModel)]
	entry := nodes["n1"]
	if entry == owner {
		entry = nodes["n2"]
	}

	valid, err := json.Marshal(serve.BatchRequest{Model: e2eModel, Batch: X[:64]})
	if err != nil {
		t.Fatal(err)
	}
	overLimit := `{"model":"dvfs-rf","batch":[[1]` + strings.Repeat(`,[1]`, 4096) + `]}`
	bodies := []struct {
		name, body string
		status     int
	}{
		{"valid", string(valid), http.StatusOK},
		{"out-of-range number", `{"model":"dvfs-rf","batch":[[1e999]]}`, http.StatusBadRequest},
		{"trailing comma", `{"model":"dvfs-rf","batch":[[1,2,]]}`, http.StatusBadRequest},
		{"wrong width", `{"model":"dvfs-rf","batch":[[1,2]]}`, http.StatusBadRequest},
		{"over the batch limit", overLimit, http.StatusRequestEntityTooLarge},
	}
	post := func(n *node, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(n.url()+"/v1/assess/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Fatalf("%s answered %d bytes with Content-Length %d", n.id, len(raw), resp.ContentLength)
		}
		return resp.StatusCode, string(raw)
	}
	forwardsOut := func() int64 { return int64(getStats(t, entry.url())["forwards_out"].(float64)) }
	before := forwardsOut()
	for _, b := range bodies {
		viaEntry, entryBody := post(entry, b.body)
		viaOwner, ownerBody := post(owner, b.body)
		if viaEntry != b.status || viaOwner != b.status || entryBody != ownerBody {
			t.Fatalf("%s: via %s %d %s\nvia %s %d %s", b.name, entry.id, viaEntry, entryBody, owner.id, viaOwner, ownerBody)
		}
	}
	if got := forwardsOut() - before; got != int64(len(bodies)) {
		t.Fatalf("%s forwarded %d of the %d bodies", entry.id, got, len(bodies))
	}
}
