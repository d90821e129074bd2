// Command experiments regenerates the tables and figures of the paper's
// evaluation (Sec. 6) on the synthetic stand-in datasets.
//
// Usage:
//
//	experiments [-fig6] [-fig7] [-table3] [-fig8] [-sweep] [-all] [-full] [-seed n]
//
// By default every experiment runs at a reduced scale that finishes in a few
// minutes; -full selects the paper-scale parameters (expect long runtimes,
// exactly as the paper reports for the Java originals).
package main

import (
	"flag"
	"fmt"
	"os"

	"holistic/internal/experiments"
)

func main() {
	var (
		fig6   = flag.Bool("fig6", false, "row scalability on uniprot (Figure 6)")
		fig7   = flag.Bool("fig7", false, "column scalability on ionosphere (Figure 7)")
		table3 = flag.Bool("table3", false, "UCI dataset comparison (Table 3)")
		fig8   = flag.Bool("fig8", false, "MUDS phase breakdown on ncvoter (Figure 8)")
		sweep  = flag.Bool("sweep", false, "dataset-property ablation (Section 6.5)")
		all    = flag.Bool("all", false, "run every experiment")
		full   = flag.Bool("full", false, "paper-scale parameters (slow)")
		seed   = flag.Int64("seed", 1, "random-walk seed")
	)
	flag.Parse()
	if !(*fig6 || *fig7 || *table3 || *fig8 || *sweep || *all) {
		flag.Usage()
		os.Exit(2)
	}
	w := os.Stdout

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	if *all || *fig6 {
		rows := []int{10000, 20000, 30000, 40000, 50000}
		if *full {
			rows = []int{50000, 100000, 150000, 200000, 250000}
		}
		_, err := experiments.Fig6(w, rows, *seed)
		fail(err)
		fmt.Fprintln(w)
	}
	if *all || *fig7 {
		cols := []int{10, 13, 16}
		if *full {
			cols = []int{10, 15, 20, 21, 22, 23}
		}
		_, err := experiments.Fig7(w, cols, *seed)
		fail(err)
		fmt.Fprintln(w)
	}
	if *all || *table3 {
		// letter and hepatitis run for many minutes on the slow algorithms
		// (as in the paper: 636s and 450s for their slowest columns), so
		// they join the table only with -full.
		names := []string{"iris", "balance", "chess", "abalone", "nursery", "b-cancer", "bridges", "echocard", "adult"}
		if *full {
			names = nil
		}
		_, err := experiments.Table3(w, names, *seed)
		fail(err)
		fmt.Fprintln(w)
	}
	if *all || *fig8 {
		rows, cols := 2000, 16
		if *full {
			rows, cols = 10000, 20
		}
		_, err := experiments.Fig8(w, rows, cols, *seed)
		fail(err)
		fmt.Fprintln(w)
	}
	if *all || *sweep {
		_, err := experiments.PropertySweep(w, *seed)
		fail(err)
		fmt.Fprintln(w)
	}
}
