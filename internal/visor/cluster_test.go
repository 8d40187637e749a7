package visor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"alloystack/internal/blockdev"
	"alloystack/internal/cluster"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/pool"
	"alloystack/internal/sched"
)

// testPoolBuilder builds a minimal warm pool over a fresh memdisk:
// enough to boot, seal and fork the native pipeline workflow.
func testPoolBuilder(w *dag.Workflow) (pool.Spec, pool.Config, bool) {
	return pool.Spec{
		Workflow: w.Name,
		Core: core.Options{
			OnDemand:    true,
			BufHeapSize: 16 << 20,
			DiskImage:   blockdev.NewMemDisk(8 << 20),
		},
		Modules: []string{"mm", "fdtab", "fatfs", "stdio", "time"},
	}, pool.Config{Min: 2, Max: 4, Seed: 1}, true
}

// clusterNode boots a watchdog with the cluster surface wired:
// HTTP server, pool manager and pre-warm builder.
func clusterNode(t *testing.T, register bool) (*Watchdog, string) {
	t.Helper()
	v := New(testRegistry(t))
	if register {
		if err := v.RegisterWorkflow(pipelineWorkflow(2)); err != nil {
			t.Fatal(err)
		}
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	wd.Pools = pool.NewManager()
	wd.PoolBuilder = testPoolBuilder
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		wd.Stop()
		wd.Pools.StopAll()
	})
	return wd, addr
}

func TestClusterAdvertisement(t *testing.T) {
	wd, addr := clusterNode(t, true)
	wd.NodeID = "alpha"
	wd.Sched = sched.New(sched.Config{MaxConcurrent: 7, MaxQueue: -1})

	resp, err := http.Get("http://" + addr + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info cluster.NodeInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "alpha" {
		t.Errorf("ID = %q, want alpha", info.ID)
	}
	if info.Capacity != 7 {
		t.Errorf("Capacity = %d, want the scheduler's 7", info.Capacity)
	}
	if !info.Knows("pipeline") {
		t.Errorf("Workflows = %v, want pipeline advertised", info.Workflows)
	}
	if info.HasWarm("pipeline") {
		t.Error("no pool built yet, but a warm template is advertised")
	}
	if info.Degraded {
		t.Error("healthy node advertises degraded")
	}
}

func TestPrewarmPullsSpecFromPeer(t *testing.T) {
	owner, _ := clusterNode(t, true)
	target, targetAddr := clusterNode(t, false)

	if _, err := target.visor.Workflow("pipeline"); err == nil {
		t.Fatal("target must start without the workflow for this test to bite")
	}

	prewarm := func(body string) (*http.Response, PrewarmResponse) {
		t.Helper()
		resp, err := http.Post("http://"+targetAddr+"/pools/prewarm",
			"application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr PrewarmResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return resp, pr
	}

	body := fmt.Sprintf(`{"workflow":"pipeline","from":%q}`, owner.Addr())
	resp, pr := prewarm(body)
	if resp.StatusCode != http.StatusOK || pr.Status != "warmed" {
		t.Fatalf("prewarm = %d %+v, want 200 warmed", resp.StatusCode, pr)
	}
	if pr.Warm == 0 {
		t.Error("pre-warm reported no warm clones; template boot should stock Min")
	}
	// The spec travelled over the owner's watchdog port and registered.
	if _, err := target.visor.Workflow("pipeline"); err != nil {
		t.Fatalf("target did not learn the workflow: %v", err)
	}
	if target.Pools.Get("pipeline") == nil {
		t.Fatal("target has no pool after pre-warm")
	}
	// The advertisement now carries the warm template.
	if !target.ClusterInfo().HasWarm("pipeline") {
		t.Error("advertisement lacks the pre-warmed template")
	}

	// An invocation on the pre-warmed node is a warm start end to end.
	inv, err := http.Post("http://"+targetAddr+"/invoke/pipeline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Body.Close()
	var ir InvokeResponse
	if err := json.NewDecoder(inv.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if inv.StatusCode != http.StatusOK || ir.Error != "" {
		t.Fatalf("invoke = %d %+v", inv.StatusCode, ir)
	}
	if !ir.WarmStart {
		t.Error("invocation after pre-warm fell back to a cold boot")
	}

	// A duplicate trigger observes the existing pool instead of
	// racing a second build.
	resp, pr = prewarm(body)
	if resp.StatusCode != http.StatusOK || pr.Status != "already-warm" {
		t.Fatalf("duplicate prewarm = %d %+v, want 200 already-warm", resp.StatusCode, pr)
	}
}

func TestPrewarmUnknownWorkflowNoPeer(t *testing.T) {
	_, targetAddr := clusterNode(t, false)
	resp, err := http.Post("http://"+targetAddr+"/pools/prewarm",
		"application/json", bytes.NewBufferString(`{"workflow":"pipeline"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 (unknown workflow, no peer to pull from)", resp.StatusCode)
	}
}

// A peer pulls a spec with GET /workflows/{name}: what it parses is the
// spec the owner registered, and an unknown name is a 404.
func TestWorkflowSpecRoundTrip(t *testing.T) {
	wd, addr := clusterNode(t, true)
	want, err := wd.visor.Workflow("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/workflows/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /workflows/pipeline = %d, %v", resp.StatusCode, err)
	}
	got, err := dag.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}

	resp, err = http.Get("http://" + addr + "/workflows/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /workflows/nope = %d, want 404", resp.StatusCode)
	}
}

// FetchSpec refuses each bad answer a peer can give with a typed error,
// and reads no more of a reply than maxControlBody: what it allocates
// is io.ReadAll's growth up to the bound (about five times the bound),
// not the reply.
func TestFetchSpecRefusesBadPeers(t *testing.T) {
	const huge = 16 << 20
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/workflows/huge":
			io.WriteString(w, `{"name":"`)
			chunk := bytes.Repeat([]byte{'a'}, 32<<10)
			for sent := 0; sent < huge; sent += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return // the client stopped reading
				}
			}
		case "/workflows/garbled":
			io.WriteString(w, `{"functions":`)
		case "/workflows/cyclic":
			io.WriteString(w, `{"name":"cyclic","functions":[
				{"name":"a","depends_on":["b"]},{"name":"b","depends_on":["a"]}]}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	if _, err := FetchSpec(addr, "gone"); !errors.Is(err, ErrUnknownWorkflow) {
		t.Errorf("404: err = %v, want ErrUnknownWorkflow", err)
	}
	if _, err := FetchSpec(addr, "garbled"); !errors.Is(err, dag.ErrBadConfig) {
		t.Errorf("malformed JSON: err = %v, want dag.ErrBadConfig", err)
	}
	if _, err := FetchSpec(addr, "cyclic"); !errors.Is(err, dag.ErrCycle) {
		t.Errorf("cyclic spec: err = %v, want dag.ErrCycle", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := FetchSpec(addr, "huge")
	runtime.ReadMemStats(&after)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Errorf("%d-byte reply: err = %v, want *http.MaxBytesError", huge, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 8*maxControlBody {
		t.Errorf("%d-byte reply allocated %d bytes, bound is %d", huge, n, maxControlBody)
	}
}

// counted is an endless stream of 'a's that counts the bytes it handed out.
type counted struct{ n int }

func (c *counted) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	c.n += len(p)
	return len(p), nil
}

// A pre-warm request over maxControlBody is refused after reading at
// most the bound, not buffered whole.
func TestPrewarmRefusesOversizedBody(t *testing.T) {
	wd, _ := clusterNode(t, false)
	const huge = 16 << 20
	src := &counted{}
	body := io.MultiReader(strings.NewReader(`{"workflow":"`), io.LimitReader(src, huge))
	rec := httptest.NewRecorder()
	wd.handlePrewarm(rec, httptest.NewRequest(http.MethodPost, "/pools/prewarm", body))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", rec.Code)
	}
	if src.n > maxControlBody+64<<10 {
		t.Errorf("read %d bytes of a %d-byte body, bound is %d", src.n, huge, maxControlBody)
	}
}
