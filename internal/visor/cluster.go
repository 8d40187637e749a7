package visor

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"alloystack/internal/cluster"
	"alloystack/internal/dag"
	"alloystack/internal/pool"
)

// The watchdog's cluster surface, all on its one listener: GET /cluster
// advertises this node to the gateway's membership poll, POST
// /pools/prewarm asks the node to build and seal a warm pool for a
// workflow (pulling the spec from a peer's GET /workflows/{name} when
// it does not know the workflow yet), and GET /workflows/{name} serves
// this node's specs to such peers.

// ClusterInfo builds this node's advertisement for GET /cluster.
func (wd *Watchdog) ClusterInfo() cluster.NodeInfo {
	info := cluster.NodeInfo{
		ID:       wd.NodeID,
		Inflight: wd.Inflight(),
	}
	if info.ID == "" {
		info.ID = wd.Addr()
	}
	if wd.Sched != nil {
		info.Capacity = int64(wd.Sched.Stats().MaxConcurrent)
	}
	if bad, _ := wd.Telemetry.Degraded(); bad {
		info.Degraded = true
	}
	info.Workflows = wd.visor.Workflows()
	if wd.Pools != nil {
		for _, ps := range wd.Pools.Stats() {
			info.Warm = append(info.Warm, cluster.WarmAd{Workflow: ps.Workflow, Warm: ps.Warm})
		}
	}
	return info
}

// handleCluster serves GET /cluster: the node advertisement the
// gateway's health loop folds into its membership view.
func (wd *Watchdog) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wd.ClusterInfo())
}

// handleWorkflow serves GET /workflows/{name}: the registered spec as
// JSON, which a pre-warming peer pulls with FetchSpec. 404 for an
// unknown name.
func (wd *Watchdog) handleWorkflow(w http.ResponseWriter, r *http.Request) {
	wf, err := wd.visor.Workflow(strings.TrimPrefix(r.URL.Path, "/workflows/"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, wf)
}

// maxControlBody bounds a control-plane body this node reads from
// outside: a pre-warm request, and the spec a peer answers FetchSpec
// with. A real spec is a few KiB; past the bound the read fails with
// *http.MaxBytesError, never with a truncated parse.
const maxControlBody = 1 << 20

// specClient bounds a whole spec pull, dial to last byte.
var specClient = &http.Client{Timeout: 5 * time.Second}

// FetchSpec pulls a workflow spec from the peer watchdog at addr and
// parses it (Parse validates, so a malformed or cyclic spec is
// rejected here, before registration). A peer that does not know the
// workflow is ErrUnknownWorkflow.
func FetchSpec(addr, workflow string) (*dag.Workflow, error) {
	resp, err := specClient.Get("http://" + addr + "/workflows/" + url.PathEscape(workflow))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s on peer %s", ErrUnknownWorkflow, workflow, addr)
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("visor: spec of %s from peer %s: %s", workflow, addr, resp.Status)
	}
	data, err := io.ReadAll(http.MaxBytesReader(nil, resp.Body, maxControlBody))
	if err != nil {
		return nil, fmt.Errorf("visor: spec of %s from peer %s: %w", workflow, addr, err)
	}
	return dag.Parse(data)
}

// PrewarmRequest is the body of POST /pools/prewarm.
type PrewarmRequest struct {
	// Workflow names the pool to build.
	Workflow string `json:"workflow"`
	// From is the watchdog address of a peer that knows the workflow;
	// consulted only when this node does not.
	From string `json:"from,omitempty"`
}

// PrewarmResponse reports the outcome of a pre-warm.
type PrewarmResponse struct {
	Workflow string `json:"workflow"`
	// Status is "warmed" (a pool was built and sealed now) or
	// "already-warm" (a pool for the workflow existed).
	Status string `json:"status"`
	// Warm counts idle clones ready after the pre-warm.
	Warm  int    `json:"warm,omitempty"`
	Error string `json:"error,omitempty"`
}

// handlePrewarm serves POST /pools/prewarm: build and seal a warm pool
// for the named workflow. When the node does not know the workflow it
// pulls the spec from the peer named in From, registers it, then
// builds the pool — the template boots synchronously, so a 200 means
// warm clones are ready.
func (wd *Watchdog) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if wd.Pools == nil || wd.PoolBuilder == nil {
		http.Error(w, "pre-warm not configured on this node", http.StatusNotImplemented)
		return
	}
	var req PrewarmRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&req); err != nil || req.Workflow == "" {
		http.Error(w, "want JSON {\"workflow\": ...}", http.StatusBadRequest)
		return
	}
	// One pre-warm builds at a time: a duplicate trigger for the same
	// workflow must observe the first build's pool, not race it.
	wd.prewarmMu.Lock()
	defer wd.prewarmMu.Unlock()
	if p := wd.Pools.Get(req.Workflow); p != nil {
		writeJSON(w, http.StatusOK, PrewarmResponse{
			Workflow: req.Workflow, Status: "already-warm", Warm: p.Stats().Warm})
		return
	}
	wf, err := wd.visor.Workflow(req.Workflow)
	if errors.Is(err, ErrUnknownWorkflow) && req.From != "" {
		if wf, err = FetchSpec(req.From, req.Workflow); err == nil {
			err = wd.visor.RegisterWorkflow(wf)
		}
	}
	if err != nil {
		writeJSON(w, http.StatusNotFound, PrewarmResponse{
			Workflow: req.Workflow, Status: "error", Error: err.Error()})
		return
	}
	spec, cfg, ok := wd.PoolBuilder(wf)
	if !ok {
		writeJSON(w, http.StatusUnprocessableEntity, PrewarmResponse{
			Workflow: req.Workflow, Status: "error",
			Error: "workflow is not poolable on this node"})
		return
	}
	p, err := pool.New(spec, cfg)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, PrewarmResponse{
			Workflow: req.Workflow, Status: "error", Error: err.Error()})
		return
	}
	p.Start()
	wd.Pools.Add(p)
	writeJSON(w, http.StatusOK, PrewarmResponse{
		Workflow: req.Workflow, Status: "warmed", Warm: p.Stats().Warm})
}

// Visor exposes the wrapped visor (harnesses register workflows on a
// running node through it).
func (wd *Watchdog) Visor() *Visor { return wd.visor }
