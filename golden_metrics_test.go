package main

import (
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/bsp/transport"
	"graphdiam/internal/exp"
	"graphdiam/internal/graph"
)

type snap struct{ rounds, messages, updates int64 }

// goldenSnapshots are the bsp.Snapshot values (rounds, messages, updates)
// of the seed algorithms on the ScaleTest benchmark graphs, captured from
// the tree before the hot-path overhaul (persistent pool, O(1) routing,
// cached stats) and unchanged by every optimisation since, including the
// owner-state prune and the removal of sender-side mailbox coalescing. The
// paper's platform-independent accounting must stay byte-identical per
// worker count — note the updates counter legitimately varies ACROSS
// worker counts (its value depends on message arrival order, fixed per P),
// which is exactly why each (graph, algorithm, workers) cell is pinned
// separately. fp is runAlgo's SHA-256 over the cell's outputs (Center and
// Dist per node plus the radius, or Dist for deltastep; floats hashed by
// IEEE bits), captured while sender-side coalescing was still in place: it
// carries forward the coalesced ≡ uncoalesced equivalence tests that the
// removal deleted.
var goldenSnapshots = []struct {
	graph   string
	algo    string
	workers int
	want    snap
	fp      string // runAlgo's SHA-256 of the output arrays
}{
	{"roads-big", "cluster", 1, snap{43, 6297, 2762}, "bb9d31040bfcfee4fccbd7e503e28a86b65d4bd35b2860da1df565368152ce01"},
	{"roads-big", "cluster2", 1, snap{119, 13780, 5816}, "1dad48e0eec091ed9888065a59428f926abbf64f4c758d869002f63e281700d6"},
	{"roads-big", "unweighted", 1, snap{31, 5461, 2306}, "6868afc439d4ab8668a43f3e8aeb5775ea2e63e7af225de9e815ffab63ca4fed"},
	{"roads-big", "deltastep", 1, snap{185, 7276, 2540}, "4aa03254fe290fe9d869eb263ac8b662a6c2887372a55d251c0ee5579c33ffe9"},
	{"roads-big", "cluster", 4, snap{43, 6297, 2762}, "bb9d31040bfcfee4fccbd7e503e28a86b65d4bd35b2860da1df565368152ce01"},
	{"roads-big", "cluster2", 4, snap{119, 13780, 5818}, "1dad48e0eec091ed9888065a59428f926abbf64f4c758d869002f63e281700d6"},
	{"roads-big", "unweighted", 4, snap{31, 5461, 2306}, "1e6f77491d3af479095ce0887595823af97810cc9c2fa1fcfc83781fab479195"},
	{"roads-big", "deltastep", 4, snap{185, 7276, 2547}, "4aa03254fe290fe9d869eb263ac8b662a6c2887372a55d251c0ee5579c33ffe9"},
	{"roads-big", "cluster", 8, snap{43, 6297, 2762}, "bb9d31040bfcfee4fccbd7e503e28a86b65d4bd35b2860da1df565368152ce01"},
	{"roads-big", "cluster2", 8, snap{119, 13780, 5831}, "1dad48e0eec091ed9888065a59428f926abbf64f4c758d869002f63e281700d6"},
	{"roads-big", "unweighted", 8, snap{31, 5461, 2306}, "1e6f77491d3af479095ce0887595823af97810cc9c2fa1fcfc83781fab479195"},
	{"roads-big", "deltastep", 8, snap{185, 7276, 2553}, "4aa03254fe290fe9d869eb263ac8b662a6c2887372a55d251c0ee5579c33ffe9"},
	{"roads-small", "cluster", 1, snap{33, 1694, 652}, "72111e83c6d221e94f2502611b9bd125e00f9b80a8f7aa8e11b6d8ee56a2562d"},
	{"roads-small", "cluster2", 1, snap{77, 3393, 1353}, "5d73dde4c9f18daf1cfb3afa17d7c63d5ceefe4552d5051f25a3deb2776cd443"},
	{"roads-small", "unweighted", 1, snap{21, 1184, 569}, "215c04933e212e1f6897564a5241ee7750232fb5d00281856ef9987f19c6487c"},
	{"roads-small", "deltastep", 1, snap{86, 1765, 626}, "e382a844b6b0d84f3a91f5152fbcac6075ab40ac553a2050759b16c43dcd7fac"},
	{"roads-small", "cluster", 4, snap{33, 1694, 652}, "72111e83c6d221e94f2502611b9bd125e00f9b80a8f7aa8e11b6d8ee56a2562d"},
	{"roads-small", "cluster2", 4, snap{77, 3393, 1352}, "5d73dde4c9f18daf1cfb3afa17d7c63d5ceefe4552d5051f25a3deb2776cd443"},
	{"roads-small", "unweighted", 4, snap{21, 1184, 569}, "8e3263198b4ee2e2be1668c2221596f085d70d1c517c886146f92488278c53ce"},
	{"roads-small", "deltastep", 4, snap{86, 1765, 630}, "e382a844b6b0d84f3a91f5152fbcac6075ab40ac553a2050759b16c43dcd7fac"},
	{"roads-small", "cluster", 8, snap{33, 1694, 653}, "72111e83c6d221e94f2502611b9bd125e00f9b80a8f7aa8e11b6d8ee56a2562d"},
	{"roads-small", "cluster2", 8, snap{77, 3393, 1353}, "5d73dde4c9f18daf1cfb3afa17d7c63d5ceefe4552d5051f25a3deb2776cd443"},
	{"roads-small", "unweighted", 8, snap{21, 1184, 571}, "8e3263198b4ee2e2be1668c2221596f085d70d1c517c886146f92488278c53ce"},
	{"roads-small", "deltastep", 8, snap{86, 1765, 640}, "e382a844b6b0d84f3a91f5152fbcac6075ab40ac553a2050759b16c43dcd7fac"},
	{"mesh", "cluster", 1, snap{35, 2973, 1276}, "edfbf501cfa87f38ecc3eadb67849a7213ff9133e7431e0247daa80dd433fcfb"},
	{"mesh", "cluster2", 1, snap{90, 11363, 4251}, "4ee28346ce8e7a9695cc6a3b99be47aabbe1b2353a4bb90fbbf2ca0185380774"},
	{"mesh", "unweighted", 1, snap{24, 2509, 1029}, "434ecc12bb9b7bb423cbb24fa2287a006efe24b586d339b8abf48f65cb906d0e"},
	{"mesh", "deltastep", 1, snap{112, 4091, 1283}, "d7fbbc986d9e5be0908d5888a3128a4e1659fefd00f3d332fef3d655c3831a2e"},
	{"mesh", "cluster", 4, snap{35, 2973, 1276}, "edfbf501cfa87f38ecc3eadb67849a7213ff9133e7431e0247daa80dd433fcfb"},
	{"mesh", "cluster2", 4, snap{90, 11363, 4246}, "4ee28346ce8e7a9695cc6a3b99be47aabbe1b2353a4bb90fbbf2ca0185380774"},
	{"mesh", "unweighted", 4, snap{24, 2509, 1029}, "434ecc12bb9b7bb423cbb24fa2287a006efe24b586d339b8abf48f65cb906d0e"},
	{"mesh", "deltastep", 4, snap{112, 4091, 1285}, "d7fbbc986d9e5be0908d5888a3128a4e1659fefd00f3d332fef3d655c3831a2e"},
	{"mesh", "cluster", 8, snap{35, 2973, 1276}, "edfbf501cfa87f38ecc3eadb67849a7213ff9133e7431e0247daa80dd433fcfb"},
	{"mesh", "cluster2", 8, snap{90, 11363, 4242}, "4ee28346ce8e7a9695cc6a3b99be47aabbe1b2353a4bb90fbbf2ca0185380774"},
	{"mesh", "unweighted", 8, snap{24, 2509, 1029}, "434ecc12bb9b7bb423cbb24fa2287a006efe24b586d339b8abf48f65cb906d0e"},
	{"mesh", "deltastep", 8, snap{112, 4091, 1291}, "d7fbbc986d9e5be0908d5888a3128a4e1659fefd00f3d332fef3d655c3831a2e"},
}

// TestGoldenMetricSnapshots pins the paper-facing cost accounting to the
// pre-overhaul values: any change to rounds, logical messages, or updates
// on the seed graphs is a reproduction regression, not an optimisation.
// Each cell's output digest pins the result arrays too.
func TestGoldenMetricSnapshots(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, ng := range exp.BenchmarkGraphs(exp.ScaleTest, 12345)[:3] {
		graphs[ng.Name] = ng.G
	}
	for _, tc := range goldenSnapshots {
		g := graphs[tc.graph]
		if g == nil {
			t.Fatalf("unknown golden graph %q", tc.graph)
		}
		e := bsp.New(tc.workers)
		got, err := runAlgo(g, tc.algo, e)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.snap != tc.want {
			t.Errorf("%s/%s workers=%d: snapshot %+v, want %+v (pinned golden)",
				tc.graph, tc.algo, tc.workers, got.snap, tc.want)
		}
		if got.fp != tc.fp {
			t.Errorf("%s/%s workers=%d: output digest %s, want %s",
				tc.graph, tc.algo, tc.workers, got.fp, tc.fp)
		}
	}
}

// TestGoldenMetricSnapshotsDistributed re-runs every golden cell with the
// workers split across two simulated-network daemons. The pinned values are
// the SAME goldens: distributing the engine must not perturb the
// paper's accounting by even one message. Cells with workers < 2 cannot be
// split and are covered by the single-process test above.
func TestGoldenMetricSnapshotsDistributed(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, ng := range exp.BenchmarkGraphs(exp.ScaleTest, 12345)[:3] {
		graphs[ng.Name] = ng.G
	}
	const peers = 2
	for _, tc := range goldenSnapshots {
		if tc.workers < peers {
			continue
		}
		g := graphs[tc.graph]
		if g == nil {
			t.Fatalf("unknown golden graph %q", tc.graph)
		}
		_, trs := simFleet(peers, transport.FaultPlan{})
		outs, errs := runFleet(t, g, tc.algo, tc.workers, trs)
		for r := range outs {
			if errs[r] != nil {
				t.Fatalf("%s/%s workers=%d peer %d: %v", tc.graph, tc.algo, tc.workers, r, errs[r])
			}
			if outs[r].snap != tc.want {
				t.Errorf("%s/%s workers=%d peer %d: snapshot %+v, want %+v (pinned golden)",
					tc.graph, tc.algo, tc.workers, r, outs[r].snap, tc.want)
			}
			if outs[r].fp != tc.fp {
				t.Errorf("%s/%s workers=%d peer %d: output digest %s, want %s",
					tc.graph, tc.algo, tc.workers, r, outs[r].fp, tc.fp)
			}
		}
	}
}
