package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Request-routing rules shared by the daemon-side proxy (internal/server)
// and the front door (cmd/graphdiamlb). Classification is purely
// syntactic — method and path, plus at most one JSON field peeked from
// the body — so both proxies route identically.

// Routing headers. RoutedHeader marks a daemon→daemon hop: the receiver
// serves locally instead of re-routing, so a stale health view costs one
// extra hop, never a loop. EdgeHeader marks a front-door hop: the tenant
// was already charged at the edge, so daemons skip admission control for
// it (but may still re-route once). Both are trust-the-fleet headers; the
// query plane assumes one administrative domain, like the blob tier.
const (
	RoutedHeader    = "X-Graphdiam-Routed"
	EdgeHeader      = "X-Graphdiam-Edge"
	RequestIDHeader = "X-Request-Id"
	TenantHeader    = "X-Tenant"
	// EpochHeader stamps every fleet-internal hop with the sender's
	// placement-view epoch; a receiver on a different epoch rejects the
	// hop (409 + its view) instead of answering under divergent placement.
	EpochHeader = "X-Graphdiam-Epoch"
)

// RouteClass says where a request must execute.
type RouteClass int

const (
	// RouteLocal requests must run on the receiving node (health, cache
	// probes, blob transfers, catalog administration).
	RouteLocal RouteClass = iota
	// RouteDataset requests are placed by dataset name (Decision.Dataset,
	// or peeked from the JSON body field Decision.BodyField).
	RouteDataset
	// RouteJob requests follow a job ID home (Decision.JobID).
	RouteJob
	// RouteAny requests have nothing to place: a daemon serves them
	// itself, the front door sends them to the first live member.
	RouteAny
)

// Decision is one request's routing classification.
type Decision struct {
	Class RouteClass
	// Dataset is the placement key when it was present in the path.
	Dataset string
	// BodyField names the JSON body field holding the placement key when
	// it must be peeked ("graph" or "name"); empty otherwise.
	BodyField string
	// JobID is the job identifier for RouteJob.
	JobID string
}

// Classify maps a request to its routing decision. It never reads the
// body — callers peek BodyField themselves (PeekBodyField) so they
// control buffering.
func Classify(method, path string) Decision {
	switch {
	case method == http.MethodPost && (path == "/v1/decompose" || path == "/v1/diameter"):
		return Decision{Class: RouteDataset, BodyField: "graph"}
	case method == http.MethodPost && path == "/v2/jobs":
		return Decision{Class: RouteDataset, BodyField: "graph"}
	case method == http.MethodPost && path == "/v1/graphs":
		return Decision{Class: RouteDataset, BodyField: "name"}
	case path == "/v1/graphs" || path == "/v2/jobs":
		return Decision{Class: RouteAny} // listings
	case strings.HasPrefix(path, "/v1/graphs/"):
		name := strings.TrimPrefix(path, "/v1/graphs/")
		if un, err := url.PathUnescape(name); err == nil {
			name = un // hash the name the handler will see, not its escaping
		}
		return Decision{Class: RouteDataset, Dataset: name}
	case strings.HasPrefix(path, "/v2/jobs/"):
		rest := strings.TrimPrefix(path, "/v2/jobs/")
		id := strings.TrimSuffix(rest, "/events")
		return Decision{Class: RouteJob, JobID: id}
	case method == http.MethodPost && strings.HasPrefix(path, "/v2/datasets/") &&
		(strings.HasSuffix(path, "/append") || strings.HasSuffix(path, "/compact")):
		// Lineage mutations move a dataset's head and must land on its
		// owner so the head moves exactly once and replicas adopt the new
		// frame by content address, like any other placed write.
		name := strings.TrimPrefix(path, "/v2/datasets/")
		name = strings.TrimSuffix(strings.TrimSuffix(name, "/append"), "/compact")
		if un, err := url.PathUnescape(name); err == nil {
			name = un
		}
		return Decision{Class: RouteDataset, Dataset: name}
	case path == "/v1/stats" || path == "/v2/datasets" || strings.HasPrefix(path, "/v2/datasets/"):
		// Stats are per-node; catalog administration targets the node the
		// operator addressed (ingest topology — hub vs mesh — is a
		// deployment choice the router must not second-guess).
		return Decision{Class: RouteLocal}
	case strings.HasPrefix(path, "/v2/cache/"),
		strings.HasPrefix(path, "/v2/blobs"),
		path == "/healthz", path == "/readyz",
		path == "/v2/fleet", strings.HasPrefix(path, "/v2/fleet/"):
		// Membership administration (/v2/fleet/config, /v2/fleet/drain)
		// targets the node the operator addressed, never a routed peer.
		return Decision{Class: RouteLocal}
	default:
		return Decision{Class: RouteAny}
	}
}

// CostsJob reports whether a request submits BSP work and therefore
// charges the tenant's admission quota.
func CostsJob(method, path string) bool {
	return method == http.MethodPost &&
		(path == "/v1/decompose" || path == "/v1/diameter" ||
			path == "/v2/jobs")
}

// JobHomeRank extracts the home rank from a fleet-qualified job ID
// ("job-r<rank>-<seq>"). Pre-fleet IDs ("job-<seq>") report ok=false and
// are served locally.
func JobHomeRank(id string) (int, bool) {
	rest, found := strings.CutPrefix(id, "job-r")
	if !found {
		return 0, false
	}
	rankStr, _, found := strings.Cut(rest, "-")
	if !found {
		return 0, false
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil || rank < 0 {
		return 0, false
	}
	return rank, true
}

// PeekBodyField reads the request body (bounded by the MaxBytesReader
// the caller already installed), extracts the named top-level string
// field from its JSON object, and reinstates the body for forwarding or
// local handling. A body that is not a JSON object, or lacks the field,
// yields "" — the caller serves locally and the handler produces its
// usual 400/404.
func PeekBodyField(r *http.Request, field string) (string, error) {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return "", fmt.Errorf("read request body: %w", err)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	var probe map[string]json.RawMessage
	if json.Unmarshal(body, &probe) != nil {
		return "", nil
	}
	var val string
	if raw, ok := probe[field]; ok {
		json.Unmarshal(raw, &val)
	}
	return val, nil
}
