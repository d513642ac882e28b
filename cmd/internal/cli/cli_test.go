package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/graph"
)

func TestLoadSpecFamilies(t *testing.T) {
	cases := map[string]struct {
		wantN int
	}{
		"mesh:8":     {64},
		"rmat:6":     {64},
		"road:8":     {0}, // road drops nodes outside the largest component
		"roads:2:8":  {0},
		"gnm:50:100": {50},
		"path:10":    {10},
	}
	for spec, want := range cases {
		g, err := LoadSpec(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if g.NumNodes() == 0 {
			t.Fatalf("%s: empty graph", spec)
		}
		if want.wantN > 0 && g.NumNodes() != want.wantN {
			t.Fatalf("%s: n=%d, want %d", spec, g.NumNodes(), want.wantN)
		}
	}
}

func TestLoadSpecErrors(t *testing.T) {
	for _, spec := range []string{"nope:3", "mesh", "mesh:x", "gnm:5", "roads:2"} {
		if _, err := LoadSpec(spec, 1); err == nil {
			t.Errorf("%s: expected error", spec)
		}
	}
}

func TestLoadSpecDeterministic(t *testing.T) {
	a, err := LoadSpec("rmat:7", 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadSpec("rmat:7", 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different graphs")
	}
}

func TestLoadGraphDispatchesOnExtension(t *testing.T) {
	dir := t.TempDir()
	g := gen.Path(6)

	write := func(name string, fn func(f *os.File) error) string {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		return p
	}
	paths := []string{
		write("g.gr", func(f *os.File) error { return gio.WriteDIMACS(f, g) }),
		write("g.bin", func(f *os.File) error { return gio.WriteBinary(f, g) }),
		write("g.metis", func(f *os.File) error { return gio.WriteMETIS(f, g) }),
		write("g.txt", func(f *os.File) error { return gio.WriteEdgeList(f, g) }),
	}
	for _, p := range paths {
		got, err := LoadGraph(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got.NumNodes() != 6 || got.NumEdges() != 5 {
			t.Fatalf("%s: n=%d m=%d", p, got.NumNodes(), got.NumEdges())
		}
	}
}

func TestLoadGraphMissingFile(t *testing.T) {
	if _, err := LoadGraph("/definitely/not/here.gr"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSourceRange(t *testing.T) {
	g := gen.Mesh(8) // n = 64
	cases := []struct {
		flag    int
		want    graph.NodeID
		wantErr bool
	}{
		{-1, 32, false},
		{0, 0, false},
		{63, 63, false},
		{64, 0, true},
		{1000, 0, true},
		{-2, 0, true},
	}
	for _, c := range cases {
		got, err := Source(g, c.flag)
		if c.wantErr {
			if err == nil || !strings.Contains(err.Error(), "n=64") {
				t.Errorf("Source(%d): err = %v, want an error naming n=64", c.flag, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("Source(%d) = %d, %v; want %d", c.flag, got, err, c.want)
		}
	}
	if _, err := Source(graph.NewBuilder(0, 0).Build(), -1); err == nil {
		t.Error("Source(-1) on an empty graph: want an error")
	}
}

func TestLoadMutualExclusion(t *testing.T) {
	if _, err := Load("a.gr", "mesh:4", 1); err == nil {
		t.Fatal("both flags should error")
	}
	if _, err := Load("", "", 1); err == nil {
		t.Fatal("neither flag should error")
	}
	if g, err := Load("", "mesh:4", 1); err != nil || g.NumNodes() != 16 {
		t.Fatalf("spec path failed: %v", err)
	}
}
