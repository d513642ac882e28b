package sssp

import (
	"context"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
)

// Test-side adapters over the cancellable API; under context.Background the
// error return cannot fire, so the helpers fold it into the failure path.

func mustDeltaStepping(t testing.TB, g *graph.Graph, src graph.NodeID, delta float64, e *bsp.Engine) DeltaResult {
	t.Helper()
	res, err := DeltaStepping(context.Background(), g, src, delta, e)
	if err != nil {
		t.Fatalf("DeltaStepping: %v", err)
	}
	return res
}

func mustUpperBound(t testing.TB, g *graph.Graph, src graph.NodeID, delta float64, e *bsp.Engine) (float64, DeltaResult) {
	t.Helper()
	ub, res, err := DiameterUpperBound(context.Background(), g, src, delta, e)
	if err != nil {
		t.Fatalf("DiameterUpperBound: %v", err)
	}
	return ub, res
}
