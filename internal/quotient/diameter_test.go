package quotient_test

import (
	"context"
	"math"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/core"
	"graphdiam/internal/gen"
	"graphdiam/internal/quotient"
	"graphdiam/internal/validate"
)

// TestDiameterExactAbove4096 clusters road networks for an 8000-node
// quotient — past the 4096 nodes up to which the source budget covers
// every node — and checks that Diameter still returns the exact quotient
// diameter bit for bit: the bounding loop converges within the budget.
func TestDiameterExactAbove4096(t *testing.T) {
	for _, spec := range []string{"road:320", "road:640"} {
		g, err := gen.FromSpec(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		e := bsp.New(2)
		tau := core.TauForQuotientTarget(g.NumNodes(), 8000)
		cl, err := core.Cluster(context.Background(), g, core.Options{Tau: tau, Seed: 1, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		q, _ := quotient.Build(g, cl.Center, cl.Dist, e)
		if k := q.NumNodes(); k <= 4096 {
			t.Fatalf("%s: quotient has %d nodes; want more than 4096", spec, k)
		}
		got := quotient.Diameter(q, e, quotient.DiameterOptions{})
		want := validate.ExactDiameter(q, e)
		e.Close()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s (k=%d): Diameter %v != exact %v", spec, q.NumNodes(), got, want)
		}
	}
}
