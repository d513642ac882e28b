package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP graphdiam_store_cache_hits_total Result-cache hits by tier.
# TYPE graphdiam_store_cache_hits_total counter
graphdiam_store_cache_hits_total{tier="local"} 10
graphdiam_store_cache_hits_total{tier="fleet_raw"} 1
graphdiam_store_computations_total 4
graphdiam_http_requests_total{route="POST /v1/diameter",code="200"} 100
go_goroutines 12
`

const promAfter = `graphdiam_store_cache_hits_total{tier="local"} 25
graphdiam_store_cache_hits_total{tier="fleet_raw"} 1
graphdiam_store_computations_total 9
graphdiam_store_evictions_total 3
graphdiam_http_requests_total{route="POST /v1/diameter",code="200"} 150
graphdiam_http_requests_total{route="GET /metrics",code="200"} 2 1700000000000
graphdiam_http_request_seconds_bucket{route="POST /v1/diameter",le="+Inf"} 150
graphdiam_dataset_appends_total{dataset="a \"quoted\" name"} 1.5e1
go_goroutines 9
`

func TestPromParseAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := after[`graphdiam_http_requests_total{route="GET /metrics",code="200"}`]; got != 2 {
		t.Errorf("value followed by a timestamp parsed as %v, want 2", got)
	}
	if got := after.sum("graphdiam_dataset_appends_total"); got != 15 {
		t.Errorf("escaped-quote label: sum %v, want 15", got)
	}
	d := after.sub(before)
	if got := d.sum("graphdiam_store_cache_hits_total"); got != 15 {
		t.Errorf("hits delta over all tiers = %v, want 15", got)
	}
	if got := d.sum("graphdiam_store_cache_hits_total", `tier="local"`); got != 15 {
		t.Errorf("local hits delta = %v, want 15", got)
	}
	if got := d.sum("graphdiam_store_cache_hits_total", `tier="fleet_raw"`); got != 0 {
		t.Errorf("fleet_raw hits delta = %v, want 0", got)
	}
	if got := d.sum("graphdiam_store_evictions_total"); got != 3 {
		t.Errorf("a counter absent before counts from zero: got %v, want 3", got)
	}
	if got := d.sum("graphdiam_http_requests_total"); got != 52 {
		t.Errorf("http requests delta = %v, want 52", got)
	}
	// A family name that is a prefix of another must not match it.
	if got := d.sum("graphdiam_http_request"); got != 0 {
		t.Errorf("prefix matched a longer family: %v", got)
	}
	if got := d.sum("go_goroutines"); got != -3 {
		t.Errorf("gauge delta = %v, want -3", got)
	}
}

func TestPromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue\n", "x{a=\"b\"} notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
