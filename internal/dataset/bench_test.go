package dataset

import (
	"bufio"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// benchCorpus lazily builds a ≥1M-edge graph once and materializes both
// its edge-list source file and its .gds snapshot, so the two load paths
// race from identical on-disk inputs.
var benchCorpus struct {
	once     sync.Once
	err      error
	g        *graph.Graph
	elPath   string // edge-list text, the re-parse baseline
	snapPath string // CSR snapshot, the mmap path
}

func benchSetup(tb testing.TB) {
	benchCorpus.once.Do(func() {
		dir, err := os.MkdirTemp("", "gds-bench")
		if err != nil {
			benchCorpus.err = err
			return
		}
		// G(n, m) with 2^20 edge samples: ~1.04M distinct edges, the
		// ISSUE's "≥1M-edge" bar, while staying quick to generate.
		g, err := gen.FromSpec("gnm:300000:1048576", 11)
		if err != nil {
			benchCorpus.err = err
			return
		}
		benchCorpus.g = g

		benchCorpus.elPath = filepath.Join(dir, "g.el")
		f, err := os.Create(benchCorpus.elPath)
		if err != nil {
			benchCorpus.err = err
			return
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		if err := gio.WriteEdgeList(bw, g); err != nil {
			benchCorpus.err = err
			return
		}
		if err := bw.Flush(); err != nil {
			benchCorpus.err = err
			return
		}
		if err := f.Close(); err != nil {
			benchCorpus.err = err
			return
		}

		benchCorpus.snapPath = filepath.Join(dir, "g"+snapExt)
		if _, err := WriteSnapshot(benchCorpus.snapPath, g); err != nil {
			benchCorpus.err = err
		}
	})
	if benchCorpus.err != nil {
		tb.Fatal(benchCorpus.err)
	}
}

// BenchmarkLoadSnapshotMmap measures the catalog's restart path: open,
// validate, mmap, structural sweep, wrap. Compare with
// BenchmarkParseEdgeList — the ratio is the restart-cost win the dataset
// subsystem exists for (the acceptance bar is ≥10×; in practice ~700×,
// the only per-edge cost being the branch-free corruption sweep).
func BenchmarkLoadSnapshotMmap(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ld, err := LoadSnapshot(benchCorpus.snapPath)
		if err != nil {
			b.Fatal(err)
		}
		if ld.Graph.NumEdges() != benchCorpus.g.NumEdges() {
			b.Fatal("wrong graph")
		}
		ld.Close()
	}
}

// BenchmarkLoadSnapshotFallback is the portable io.ReadFull path: still
// no parsing, but it does copy the arrays into the heap.
func BenchmarkLoadSnapshotFallback(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ld, err := loadSnapshot(benchCorpus.snapPath, true)
		if err != nil {
			b.Fatal(err)
		}
		if ld.Graph.NumEdges() != benchCorpus.g.NumEdges() {
			b.Fatal("wrong graph")
		}
		ld.Close()
	}
}

// BenchmarkParseEdgeList is the pre-dataset baseline: re-parse the
// edge-list source and rebuild the CSR on every boot.
func BenchmarkParseEdgeList(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(benchCorpus.elPath)
		if err != nil {
			b.Fatal(err)
		}
		g, err := gio.ReadEdgeList(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() != benchCorpus.g.NumEdges() {
			b.Fatal("wrong graph")
		}
	}
}

// lineageCorpus lazily builds a catalog holding one dataset with a delta
// chain: a road:320 base (102 400 nodes) and 7 frames of 512 random
// insertions each.
var lineageCorpus struct {
	once sync.Once
	err  error
	dir  string
	head string
}

func lineageSetup(tb testing.TB) {
	lineageCorpus.once.Do(func() {
		lineageCorpus.err = func() error {
			dir, err := os.MkdirTemp("", "gdd-bench")
			if err != nil {
				return err
			}
			g, err := gen.FromSpec("road:320", 3)
			if err != nil {
				return err
			}
			c, err := Open(dir, Options{CompactAfter: -1})
			if err != nil {
				return err
			}
			defer c.Close()
			if _, err := c.IngestGraph("g", g, FormatBinary, ""); err != nil {
				return err
			}
			r := rng.New(5)
			n := g.NumNodes()
			for f := 0; f < 7; f++ {
				d := &EdgeDelta{}
				for len(d.Ins) < 512 {
					u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
					if u != v {
						d.Ins = append(d.Ins, DeltaIns{U: u, V: v, W: 0.5 + r.Float64()})
					}
				}
				res, err := c.AppendDelta("g", d, "")
				if err != nil {
					return err
				}
				lineageCorpus.head = res.Info.SHA256
			}
			lineageCorpus.dir = dir
			return nil
		}()
	})
	if lineageCorpus.err != nil {
		tb.Fatal(lineageCorpus.err)
	}
}

// BenchmarkMaterializeLineage measures a lineage fault-in: a freshly
// reopened catalog has nothing mapped, so Load decodes and verifies the
// 7 frames, merges them into the base CSR and re-hashes the head.
func BenchmarkMaterializeLineage(b *testing.B) {
	lineageSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := Open(lineageCorpus.dir, Options{CompactAfter: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ld, err := c.Load("g")
		if err != nil {
			b.Fatal(err)
		}
		if ld.Header.SHAHex() != lineageCorpus.head {
			b.Fatal("wrong head")
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}

// TestSnapshotLoadAtLeastTenTimesFasterThanParse pins the acceptance
// criterion as a test (single measured run of each path, generous slack
// against noisy CI hardware: the real ratio is ~1000×).
func TestSnapshotLoadAtLeastTenTimesFasterThanParse(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation is not -short friendly")
	}
	benchSetup(t)
	parse := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, _ := os.Open(benchCorpus.elPath)
			if _, err := gio.ReadEdgeList(f); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
	load := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ld, err := LoadSnapshot(benchCorpus.snapPath)
			if err != nil {
				b.Fatal(err)
			}
			ld.Close()
		}
	})
	parseNs := float64(parse.NsPerOp())
	loadNs := float64(load.NsPerOp())
	t.Logf("parse %.1fms vs snapshot load %.3fms (%.0f×)",
		parseNs/1e6, loadNs/1e6, parseNs/loadNs)
	if loadNs*10 > parseNs {
		t.Fatalf("snapshot load (%.2fms) is not ≥10× faster than re-parse (%.2fms)",
			loadNs/1e6, parseNs/1e6)
	}
}
