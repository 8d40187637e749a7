package visor

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strings"
	"time"

	"alloystack/internal/cluster"
	"alloystack/internal/dag"
	"alloystack/internal/pool"
	"alloystack/internal/xfer"
)

// The watchdog's cluster surface: GET /cluster advertises this node to
// the gateway's membership poll, POST /pools/prewarm asks the node to
// build and seal a warm pool for a workflow (pulling the spec from a
// peer's spec server when it does not know the workflow yet), and the
// spec server itself answers framed GETs for "spec:{workflow}" slots
// (xfer.ServeSource).

// specSlotPrefix namespaces workflow specs on the spec server.
const specSlotPrefix = "spec:"

// ClusterInfo builds this node's advertisement for GET /cluster.
func (wd *Watchdog) ClusterInfo() cluster.NodeInfo {
	info := cluster.NodeInfo{
		ID:       wd.NodeID,
		Inflight: wd.Inflight(),
		SpecAddr: wd.SpecAddr(),
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

// StartSpecServer listens on addr (use "127.0.0.1:0" for ephemeral)
// and serves this node's workflow specs to peers over the framed GET
// protocol. It returns the bound address, which the node advertises as
// SpecAddr. Stop closes it.
func (wd *Watchdog) StartSpecServer(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	wd.specLn = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go func() {
				defer conn.Close()
				xfer.ServeSource(conn, wd.lookupSpec)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// SpecAddr returns the spec server's bound address ("" when not
// started).
func (wd *Watchdog) SpecAddr() string {
	if wd.specLn == nil {
		return ""
	}
	return wd.specLn.Addr().String()
}

// lookupSpec answers spec-server GETs: "spec:{workflow}" resolves to
// the registered workflow's JSON.
func (wd *Watchdog) lookupSpec(slot string) ([]byte, bool) {
	name, ok := strings.CutPrefix(slot, specSlotPrefix)
	if !ok {
		return nil, false
	}
	w, err := wd.visor.Workflow(name)
	if err != nil {
		return nil, false
	}
	data, err := json.Marshal(w)
	if err != nil {
		return nil, false
	}
	return data, true
}

// FetchSpec pulls a workflow spec from a peer's spec server and parses
// it (Parse validates, so a malformed or cyclic spec is rejected here,
// before registration).
func FetchSpec(specAddr, workflow string) (*dag.Workflow, error) {
	conn, err := net.DialTimeout("tcp", specAddr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	data, err := xfer.FetchFrom(conn, specSlotPrefix+workflow)
	if err != nil {
		return nil, err
	}
	return dag.Parse(data)
}

// PrewarmRequest is the body of POST /pools/prewarm.
type PrewarmRequest struct {
	// Workflow names the pool to build.
	Workflow string `json:"workflow"`
	// From is the spec-server address of a peer that knows the
	// workflow; consulted only when this node does not.
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Workflow == "" {
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
