package server

import (
	"strings"
	"time"
)

// Request observability: route-pattern normalization for the metric label
// and the structured per-request span line. The route label must be the
// *pattern*, never the raw path — dataset names are bounded operator
// vocabulary and acceptable in logs, but job IDs, blob SHAs, and cache
// keys are unbounded and would explode metric cardinality, so every
// parameterized segment collapses to its placeholder and anything
// unrecognized collapses to "other".

// normalizeRoute maps a request path to its mux-pattern label.
func normalizeRoute(path string) string {
	p := strings.TrimSuffix(path, "/")
	if p == "" {
		p = "/"
	}
	switch p {
	case "/v1/graphs", "/v1/decompose", "/v1/diameter", "/v1/stats",
		"/v2/jobs", "/v2/datasets", "/v2/blobs",
		"/v2/fleet", "/v2/fleet/config", "/v2/fleet/drain",
		"/healthz", "/readyz", "/metrics":
		return p
	}
	seg := strings.Split(strings.TrimPrefix(p, "/"), "/")
	switch {
	case len(seg) == 3 && seg[0] == "v1" && seg[1] == "graphs":
		return "/v1/graphs/{name}"
	case len(seg) == 3 && seg[0] == "v2" && seg[1] == "jobs":
		return "/v2/jobs/{id}"
	case len(seg) == 4 && seg[0] == "v2" && seg[1] == "jobs" && seg[3] == "events":
		return "/v2/jobs/{id}/events"
	case len(seg) == 3 && seg[0] == "v2" && seg[1] == "datasets":
		return "/v2/datasets/{name}"
	case len(seg) == 4 && seg[0] == "v2" && seg[1] == "datasets" && seg[3] == "load":
		return "/v2/datasets/{name}/load"
	case len(seg) == 4 && seg[0] == "v2" && seg[1] == "datasets" && seg[3] == "append":
		return "/v2/datasets/{name}/append"
	case len(seg) == 4 && seg[0] == "v2" && seg[1] == "datasets" && seg[3] == "compact":
		return "/v2/datasets/{name}/compact"
	case len(seg) == 3 && seg[0] == "v2" && seg[1] == "blobs":
		return "/v2/blobs/{sha}"
	case len(seg) == 3 && seg[0] == "v2" && seg[1] == "cache":
		return "/v2/cache/{key}"
	}
	return "other"
}

// routeDataset extracts the dataset name from a dataset-keyed path, or ""
// — the one path parameter that is fine to log (bounded vocabulary).
func routeDataset(path string) string {
	p := strings.TrimPrefix(path, "/v2/datasets/")
	if p == path || p == "" {
		return ""
	}
	return strings.SplitN(p, "/", 2)[0]
}

// durationMS renders a duration as fractional milliseconds for log spans.
func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}
