package visor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
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
// HTTP server, spec server, pool manager and pre-warm builder.
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
	if _, err := wd.StartSpecServer("127.0.0.1:0"); err != nil {
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
	if info.SpecAddr == "" {
		t.Error("SpecAddr empty; spec server not advertised")
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

	body := fmt.Sprintf(`{"workflow":"pipeline","from":%q}`, owner.SpecAddr())
	resp, pr := prewarm(body)
	if resp.StatusCode != http.StatusOK || pr.Status != "warmed" {
		t.Fatalf("prewarm = %d %+v, want 200 warmed", resp.StatusCode, pr)
	}
	if pr.Warm == 0 {
		t.Error("pre-warm reported no warm clones; template boot should stock Min")
	}
	// The spec travelled over the framed transport and registered.
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
