// Package cli holds the small helpers shared by graphdiam's command-line
// tools: loading graphs from files in any supported format, and loading the
// synthetic families by spec without an intermediate file.
package cli

import (
	"fmt"
	"os"
	"strings"

	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/graph"
)

// LoadGraph reads a graph from path, dispatching on the extension:
// .gr (DIMACS), .bin (graphdiam binary), .metis/.graph (METIS), anything
// else as an edge list.
func LoadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".gr"):
		return gio.ReadDIMACS(f)
	case strings.HasSuffix(path, ".bin"):
		return gio.ReadBinary(f)
	case strings.HasSuffix(path, ".metis") || strings.HasSuffix(path, ".graph"):
		return gio.ReadMETIS(f)
	default:
		return gio.ReadEdgeList(f)
	}
}

// LoadSpec builds a graph from a compact generator spec such as "mesh:256"
// or "rmat:16". The grammar lives in gen.FromSpec, which is shared with the
// graphdiamd server's generate endpoint; the seed drives both topology and
// weights.
func LoadSpec(spec string, seed uint64) (*graph.Graph, error) {
	return gen.FromSpec(spec, seed)
}

// Load resolves the -graph / -spec flag pair: exactly one must be set.
func Load(path, spec string, seed uint64) (*graph.Graph, error) {
	switch {
	case path != "" && spec != "":
		return nil, fmt.Errorf("cli: -graph and -spec are mutually exclusive")
	case path != "":
		return LoadGraph(path)
	case spec != "":
		return LoadSpec(spec, seed)
	default:
		return nil, fmt.Errorf("cli: one of -graph or -spec is required")
	}
}

// Source resolves a -source flag against g: -1 means node n/2, and any
// other value must be a node ID in [0, n).
func Source(g *graph.Graph, flagValue int) (graph.NodeID, error) {
	n := g.NumNodes()
	src := flagValue
	if src == -1 {
		src = n / 2
	}
	if src < 0 || src >= n {
		return 0, fmt.Errorf("cli: -source %d is not a node of the graph (n=%d; want 0..n-1, or -1 for n/2)", flagValue, n)
	}
	return graph.NodeID(src), nil
}
