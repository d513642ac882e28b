// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the scaled benchmark suite. See the experiment
// index in DESIGN.md for which paper artifact each subcommand reproduces;
// `experiments -scale test all` is the quick smoke run.
//
// Usage:
//
//	experiments table1            # benchmark graph properties (Table 1)
//	experiments table2            # CL-DIAM vs Δ-stepping (Table 2, Figs 1-3)
//	experiments table3            # big-graph runs (Table 3)
//	experiments fig4              # scalability in workers (Figure 4)
//	experiments deltasens         # Section 5 Δ-sensitivity experiment
//	experiments stepcap           # Section 4.1 step-cap ablation
//	experiments oblivious         # weight-obliviousness ablation (Sec. 1 remark)
//	experiments corollary1        # rounds vs τ on a mesh (Corollary 1)
//	experiments all               # everything
//
// Flags: -scale test|default, -workers N, -seed S.
package main

import (
	"flag"
	"fmt"
	"os"

	"graphdiam/internal/exp"
)

func main() {
	var (
		scaleName = flag.String("scale", "default", "instance scale: test|default")
		workers   = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		seed      = flag.Uint64("seed", 12345, "random seed")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
	}
	scale := exp.ScaleDefault
	if *scaleName == "test" {
		scale = exp.ScaleTest
	}

	run := flag.Arg(0)
	did := false
	if run == "table1" || run == "all" {
		fmt.Println("== Table 1: benchmark graphs ==")
		exp.WriteTable1(os.Stdout, exp.Table1(scale))
		fmt.Println()
		did = true
	}
	if run == "table2" || run == "all" {
		fmt.Println("== Table 2 / Figures 1-3: CL-DIAM vs Δ-stepping ==")
		rows := exp.Table2(scale, exp.CompareOptions{Workers: *workers, Seed: *seed})
		exp.WriteTable2(os.Stdout, rows)
		fmt.Println()
		did = true
	}
	if run == "table3" || run == "all" {
		fmt.Println("== Table 3: big graphs (CL-DIAM only) ==")
		exp.WriteTable3(os.Stdout, exp.Table3(scale, *workers, *seed))
		fmt.Println()
		did = true
	}
	if run == "fig4" || run == "all" {
		fmt.Println("== Figure 4: scalability in workers ==")
		exp.WriteFig4(os.Stdout, exp.Fig4(scale, nil, *seed))
		fmt.Println()
		did = true
	}
	if run == "deltasens" || run == "all" {
		fmt.Println("== Section 5: initial-Δ sensitivity (bimodal mesh) ==")
		exp.WriteDeltaSens(os.Stdout, exp.DeltaSens(scale, *seed))
		fmt.Println()
		did = true
	}
	if run == "stepcap" || run == "all" {
		fmt.Println("== Section 4.1: growing-step cap ablation ==")
		exp.WriteStepCap(os.Stdout, exp.StepCap(scale, *seed))
		fmt.Println()
		did = true
	}
	if run == "oblivious" || run == "all" {
		fmt.Println("== Ablation: weight-oblivious [CPPU15] decomposition ==")
		exp.WriteWeightOblivious(os.Stdout, exp.WeightOblivious(scale, *seed))
		fmt.Println()
		did = true
	}
	if run == "corollary1" || run == "all" {
		fmt.Println("== Corollary 1: rounds vs τ on a doubling-dimension-2 mesh ==")
		exp.WriteCorollary1(os.Stdout, exp.Corollary1(scale, *seed))
		fmt.Println()
		did = true
	}
	if !did {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-scale test|default] [-workers N] [-seed S] table1|table2|table3|fig4|deltasens|stepcap|oblivious|corollary1|all")
	os.Exit(2)
}
