package store

import (
	"context"
	"strings"

	"graphdiam/internal/core"
	"graphdiam/internal/graph"
)

// Dynamic-graph maintenance. When a dataset's lineage head moves, no
// query can be answered for the superseded head any more: every query
// resolves its name through the catalog (see resolve), results are keyed
// by head SHA, and a resident graph whose SHA is not the head is dropped
// on sight. That holds whether or not anyone calls this file. ApplyDelta
// is what the server calls after the catalog commits an append to do the
// two things resolve does not: free the superseded head's cache slots at
// once, and decide whether to warm the new head's before the next query.
//
// Decompositions are maintained incrementally in the scheduling sense,
// not the splicing sense: the paper's cluster-growing algorithm couples
// every cluster through global state (the per-stage fraction p depends
// on |uncovered|, Δ doubles on fleet-wide coverage), so recomputing
// only the touched clusters and splicing them into the old clustering
// cannot reproduce the deterministic full run bit for bit. Instead the
// store keeps the last clustering per (head, params), measures how many
// clusters a delta actually touched, and when that churn is under
// Config.ChurnThreshold it eagerly re-runs the full deterministic
// algorithm on the new head so the cache is warm before the next query
// — byte-identical to a cold full recompute by construction, with the
// round/message/update accounting exact for the run that happened. Past
// the threshold it just invalidates and lets the next query pay.

// MaintenanceResult reports what one head movement did to this node's
// caches and decompositions.
type MaintenanceResult struct {
	// Mode is "none" (no retained decomposition to maintain),
	// "incremental" (churn under threshold: recomputed eagerly), or
	// "full" (churn over threshold: invalidated, next query recomputes).
	Mode string `json:"mode"`
	// Recomputed counts decompositions re-run eagerly.
	Recomputed int `json:"recomputed"`
	// Invalidated counts cache entries dropped (computed here or pushed).
	Invalidated int `json:"invalidated"`
	// TouchedClusters/TotalClusters measure the delta's churn against
	// the retained clustering with the highest touched fraction.
	TouchedClusters int `json:"touchedClusters"`
	TotalClusters   int `json:"totalClusters"`
}

// retainedClustering is the store's memory of one decomposition run:
// enough to measure a delta's churn and to replay the exact query.
type retainedClustering struct {
	params Params
	cl     *core.Clustering
}

// maxRetained bounds the retained-clustering side cache. Entries are
// small relative to graphs (one int32 per node) but not free.
const maxRetained = 16

// retainClustering remembers the clustering behind a just-completed
// decomposition of g, keyed by the graph's content address + canonical
// params. Ad-hoc (non-dataset) graphs have no fleet-stable identity and
// are not retained; nor is a run whose graph is no longer what name means.
func (s *Store) retainClustering(name string, g *graph.Graph, p Params, cl *core.Clustering) {
	ge, _ := s.resolve(name)
	if cl == nil || ge == nil || ge.g != g || !contentAddressed(ge.id) {
		return
	}
	k := ge.id + "|" + p.canonical("decompose")
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.retained[k]; !exists {
		s.retainedOrder = append(s.retainedOrder, k)
		for len(s.retainedOrder) > maxRetained {
			delete(s.retained, s.retainedOrder[0])
			s.retainedOrder = s.retainedOrder[1:]
		}
	}
	s.retained[k] = &retainedClustering{params: p, cl: cl}
}

// ApplyDelta tells the store that a dataset's lineage head moved from
// prevSHA to newSHA. touched is the distinct vertex set the delta named.
// It sweeps every cache entry keyed on the superseded head and maintains
// retained decompositions per the churn policy above; the superseded
// resident graph itself goes when the next query (the eager recompute
// included) resolves the name. Safe to call with prevSHA == newSHA (a
// no-op append): nothing is invalidated.
func (s *Store) ApplyDelta(ctx context.Context, name, prevSHA, newSHA string, touched []graph.NodeID) MaintenanceResult {
	res := MaintenanceResult{Mode: "none"}
	if prevSHA == newSHA || prevSHA == "" {
		return res
	}
	prefix := prevSHA + "|"

	s.mu.Lock()
	res.Invalidated = s.purgeLocked(prefix)
	// Pop the old head's retained decompositions for churn measurement.
	var stale []*retainedClustering
	for i := 0; i < len(s.retainedOrder); {
		k := s.retainedOrder[i]
		if strings.HasPrefix(k, prefix) {
			stale = append(stale, s.retained[k])
			delete(s.retained, k)
			s.retainedOrder = append(s.retainedOrder[:i], s.retainedOrder[i+1:]...)
			continue
		}
		i++
	}
	threshold := s.cfg.ChurnThreshold
	s.mu.Unlock()

	if len(stale) == 0 {
		return res
	}
	res.Mode = "full"
	for _, re := range stale {
		tc, total := touchedClusters(re.cl, touched)
		if total*res.TouchedClusters <= res.TotalClusters*tc { // keep the highest fraction
			res.TouchedClusters, res.TotalClusters = tc, total
		}
		eager := threshold >= 0 && total > 0 && float64(tc) <= threshold*float64(total)
		if eager && ctx.Err() == nil {
			// Re-run the exact query on the new head: the deterministic
			// full algorithm, so the refreshed cache entry is
			// byte-identical to what a cold recompute would return.
			if _, _, err := s.Decompose(ctx, name, re.params); err == nil {
				res.Recomputed++
			}
		}
	}
	if res.Recomputed > 0 {
		res.Mode = "incremental"
	}
	s.cfg.Metrics.deltaMaintenance(res.Mode)
	return res
}

// touchedClusters counts how many of the clustering's clusters contain
// a touched vertex. Vertices beyond the old graph (newly inserted
// endpoints) count as one extra touched cluster — they belong to no
// existing cluster but force work wherever they land.
func touchedClusters(cl *core.Clustering, touched []graph.NodeID) (tc, total int) {
	total = cl.NumClusters()
	seen := make(map[int32]bool, len(touched))
	grown := false
	for _, v := range touched {
		if int(v) < len(cl.Center) {
			seen[cl.Center[v]] = true
		} else {
			grown = true
		}
	}
	tc = len(seen)
	if grown {
		tc++
	}
	return tc, total
}
