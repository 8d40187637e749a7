package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"alloystack/internal/cluster"
)

// The gateway's side of the cluster plane: the health loop's poll feeds
// the router's membership view from each backend's /cluster
// advertisement, placement sweeps trigger pre-warms so the ring's top
// choice for a workflow holds its warm template, and GET /cluster serves
// the view to asctl. Routing itself is gateway.go's route.

// poll is the health turn's one request to a backend: GET /cluster. A
// decodable 2xx closes the breaker and refreshes the member (load, warm
// set, degraded-ness); anything else opens it and marks the member dead.
func (g *Gateway) poll(b *backendState) {
	info, err := g.nodeInfo(b)
	if err != nil {
		b.markDown(g.cooldown(), time.Now())
		g.Cluster.Membership().MarkDead(b.addr)
		return
	}
	b.markUp()
	g.Cluster.Membership().Update(b.addr, info)
}

// nodeInfo fetches b's /cluster advertisement over a framed connection
// still to be upgraded, which then joins b's idle set if that is empty:
// the first invoke after a poll dials nothing.
func (g *Gateway) nodeInfo(b *backendState) (cluster.NodeInfo, error) {
	var info cluster.NodeInfo
	c, err := g.dial(b.addr)
	if err != nil {
		return info, err
	}
	var resp *http.Response
	if err = c.SetDeadline(time.Now().Add(pollTimeout)); err == nil {
		resp, err = c.Get("/cluster")
	}
	if err != nil {
		c.Close()
		return info, err
	}
	if resp.StatusCode >= 300 {
		err = fmt.Errorf("status %d", resp.StatusCode)
	} else if err = json.NewDecoder(resp.Body).Decode(&info); err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil || resp.Close {
		c.Close()
	} else {
		b.offer(c)
	}
	return info, err
}

// prewarmGuard claims the (workflow, target) pre-warm slot; false when
// another sweep is already building it.
func (g *Gateway) prewarmGuard(key string) bool {
	g.prewarmMu.Lock()
	defer g.prewarmMu.Unlock()
	if g.prewarming == nil {
		g.prewarming = make(map[string]bool)
	}
	if g.prewarming[key] {
		return false
	}
	g.prewarming[key] = true
	return true
}

func (g *Gateway) prewarmDone(key string) {
	g.prewarmMu.Lock()
	delete(g.prewarming, key)
	g.prewarmMu.Unlock()
}

// prewarmBody mirrors the watchdog's PrewarmRequest JSON without
// importing the visor package.
type prewarmBody struct {
	Workflow string `json:"workflow"`
	From     string `json:"from,omitempty"`
}

// PrewarmSweep executes the router's current pre-warm plans: for each
// workflow whose rendezvous top lacks a warm template, POST
// /pools/prewarm to that node, naming a warm holder's watchdog address
// so the target can pull the workflow spec it does not know. Successful
// builds re-poll the target's advertisement immediately so routing
// reflects the new template without waiting a health-loop period.
// Returns how many pre-warms completed.
func (g *Gateway) PrewarmSweep() int {
	// Template boots stage runtime images; give them more room than a
	// health probe.
	client := &http.Client{Timeout: 2 * time.Minute}
	done := 0
	for _, plan := range g.Cluster.PrewarmPlans() {
		key := plan.Workflow + "\x00" + plan.Target
		if !g.prewarmGuard(key) {
			continue
		}
		body, _ := json.Marshal(prewarmBody{Workflow: plan.Workflow, From: plan.Owner})
		resp, err := client.Post(fmt.Sprintf("http://%s/pools/prewarm", plan.Target),
			"application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 300 {
				g.Cluster.NotePrewarm()
				g.poll(g.states[plan.Target])
				done++
			}
		}
		g.prewarmDone(key)
	}
	return done
}

// ClusterView is the gateway's GET /cluster response: router counters,
// the membership view, and the ranked ring per advertised workflow.
type ClusterView struct {
	Stats   cluster.Stats    `json:"stats,omitempty"`
	Members []cluster.Member `json:"members,omitempty"`
	// Rings maps workflow name to its current rendezvous ranking.
	Rings map[string][]cluster.Candidate `json:"rings,omitempty"`
}

// handleCluster serves GET /cluster (asctl cluster).
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	view := ClusterView{
		Stats:   g.Cluster.Stats(),
		Members: g.Cluster.Membership().Snapshot(),
		Rings:   make(map[string][]cluster.Candidate),
	}
	for _, wf := range g.Cluster.Membership().Workflows() {
		view.Rings[wf] = g.Cluster.Route(wf)
	}
	json.NewEncoder(w).Encode(view)
}
