// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 6) on the synthetic stand-in datasets. Each experiment
// prints rows in the layout of the corresponding paper artifact and returns
// the measurements so tests and the benchmark harness can assert on shapes
// (who wins, by what factor) rather than absolute numbers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"holistic/internal/core"
	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// Measurement is one (dataset, strategy) timing.
type Measurement struct {
	Dataset  string
	Strategy string
	Duration time.Duration
	FDs      int
	UCCs     int
	INDs     int
}

func run(strategy string, rel *relation.Relation, seed int64) (Measurement, error) {
	src := core.RelationSource{Rel: rel}
	start := time.Now()
	res, err := core.Run(strategy, src, core.Options{Seed: seed})
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Dataset:  rel.Name(),
		Strategy: strategy,
		Duration: time.Since(start),
		FDs:      len(res.FDs),
		UCCs:     len(res.UCCs),
		INDs:     len(res.INDs),
	}, nil
}

func seconds(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Fig6 reproduces Figure 6: row scalability on the uniprot-like dataset with
// 10 columns. rowSteps lists the row counts (the paper uses 50k..250k).
func Fig6(w io.Writer, rowSteps []int, seed int64) ([]Measurement, error) {
	fmt.Fprintln(w, "Figure 6 — scalability with the number of rows (uniprot, 10 columns)")
	fmt.Fprintf(w, "%10s %12s %12s %12s\n", "rows", "baseline", "HFUN", "MUDS")
	var out []Measurement
	for _, rows := range rowSteps {
		rel := dataset.Uniprot(rows)
		fmt.Fprintf(w, "%10d", rows)
		for _, strat := range []string{core.StrategyBaseline, core.StrategyHolisticFun, core.StrategyMuds} {
			m, err := run(strat, rel, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			fmt.Fprintf(w, " %12s", seconds(m.Duration))
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

// Fig7 reproduces Figure 7: column scalability on the ionosphere-like
// dataset (351 rows), printing execution times and discovered dependency
// counts per column count.
func Fig7(w io.Writer, colSteps []int, seed int64) ([]Measurement, error) {
	fmt.Fprintln(w, "Figure 7 — scalability with the number of columns (ionosphere, 351 rows)")
	fmt.Fprintf(w, "%8s %12s %12s %12s %8s %8s %8s\n", "columns", "MUDS", "HFUN", "baseline", "#INDs", "#FDs", "#UCCs")
	var out []Measurement
	for _, cols := range colSteps {
		rel := dataset.Ionosphere(cols, 351)
		var ms []Measurement
		for _, strat := range []string{core.StrategyMuds, core.StrategyHolisticFun, core.StrategyBaseline} {
			m, err := run(strat, rel, seed)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		out = append(out, ms...)
		fmt.Fprintf(w, "%8d %12s %12s %12s %8d %8d %8d\n",
			cols, seconds(ms[0].Duration), seconds(ms[1].Duration), seconds(ms[2].Duration),
			ms[0].INDs, ms[0].FDs, ms[0].UCCs)
	}
	return out, nil
}

// Table3 reproduces Table 3: runtime comparison of baseline, Holistic FUN,
// MUDS and TANE on the eleven UCI-like datasets. names selects a subset
// (nil = all).
func Table3(w io.Writer, names []string, seed int64) ([]Measurement, error) {
	fmt.Fprintln(w, "Table 3 — runtime comparison on the UCI-like datasets")
	fmt.Fprintf(w, "%-10s %5s %7s %6s(paper) %6s %10s %10s %10s %10s\n",
		"dataset", "cols", "rows", "FDs", "FDs", "baseline", "HFUN", "MUDS", "TANE")
	selected := dataset.UCITable()
	if names != nil {
		var filtered []dataset.UCIInfo
		for _, info := range selected {
			for _, n := range names {
				if info.Name == n {
					filtered = append(filtered, info)
				}
			}
		}
		selected = filtered
	}
	var out []Measurement
	for _, info := range selected {
		rel, err := dataset.UCI(info.Name)
		if err != nil {
			return nil, err
		}
		var ms []Measurement
		for _, strat := range []string{core.StrategyBaseline, core.StrategyHolisticFun, core.StrategyMuds, core.StrategyTane} {
			m, err := run(strat, rel, seed)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		out = append(out, ms...)
		fmt.Fprintf(w, "%-10s %5d %7d %6d %12d %10s %10s %10s %10s\n",
			info.Name, rel.NumColumns(), rel.NumRows(), info.PaperFDs, ms[2].FDs,
			seconds(ms[0].Duration), seconds(ms[1].Duration), seconds(ms[2].Duration), seconds(ms[3].Duration))
	}
	return out, nil
}

// Fig8 reproduces Figure 8: the per-phase runtime of MUDS on the
// ncvoter-like dataset (paper: 10,000 rows × 20 columns).
func Fig8(w io.Writer, rows, cols int, seed int64) (*core.Result, error) {
	rel := dataset.NCVoter(rows, cols)
	res, err := core.RunRelationContext(context.Background(), core.StrategyMuds, rel, core.Options{Seed: seed}, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure 8 — runtime of MUDS' phases (ncvoter, %d rows × %d columns)\n", rel.NumRows(), rel.NumColumns())
	for _, p := range res.Phases {
		fmt.Fprintf(w, "  %-26s %10.3fs\n", p.Name, p.Duration.Seconds())
	}
	fmt.Fprintf(w, "  %-26s %10.3fs  (FDs=%d UCCs=%d INDs=%d)\n",
		"total", res.Total().Seconds(), len(res.FDs), len(res.UCCs), len(res.INDs))
	return res, nil
}

// SweepPoint is one configuration of the Sec. 6.5 property sweep.
type SweepPoint struct {
	Label string
	Rel   *relation.Relation
}

// PropertySweep builds datasets that toggle the three dataset properties of
// Sec. 6.5 (UCC lattice height, distance between UCCs and FDs, size of R\Z)
// and compares MUDS against Holistic FUN on each — the ablation behind the
// paper's "favorable dataset properties" discussion.
func PropertySweep(w io.Writer, seed int64) ([]Measurement, error) {
	points := []SweepPoint{
		{"low-level keys (card≈rows)", sweepRelation(1)},
		{"mid-level keys (card≈30)", sweepRelation(2)},
		{"high-level keys (card≈6)", sweepRelation(3)},
		{"large R\\Z (derived block)", sweepRelation(4)},
	}
	fmt.Fprintln(w, "Section 6.5 — dataset-property sweep (MUDS vs Holistic FUN vs FDs-first)")
	fmt.Fprintf(w, "%-30s %10s %10s %10s %8s %8s\n", "configuration", "MUDS", "HFUN", "FDs-first", "#FDs", "#UCCs")
	var out []Measurement
	for _, pt := range points {
		muds, err := run(core.StrategyMuds, pt.Rel, seed)
		if err != nil {
			return nil, err
		}
		hfun, err := run(core.StrategyHolisticFun, pt.Rel, seed)
		if err != nil {
			return nil, err
		}
		// The FDs-first alternative of Sec. 3.1: its extra cost over HFUN is
		// exactly the Lemma-2 UCC inference the paper rejects it for.
		fdfirst, err := run(core.StrategyFDFirst, pt.Rel, seed)
		if err != nil {
			return nil, err
		}
		muds.Dataset, hfun.Dataset, fdfirst.Dataset = pt.Label, pt.Label, pt.Label
		out = append(out, muds, hfun, fdfirst)
		fmt.Fprintf(w, "%-30s %10s %10s %10s %8d %8d\n",
			pt.Label, seconds(muds.Duration), seconds(hfun.Duration), seconds(fdfirst.Duration), muds.FDs, muds.UCCs)
	}
	return out, nil
}

// sweepRelation builds the parameterised relations of the property sweep.
func sweepRelation(variant int) *relation.Relation {
	const rows = 1000
	spec := dataset.Spec{Name: fmt.Sprintf("sweep%d", variant), Rows: rows, Seed: int64(variant)}
	switch variant {
	case 1: // keys on lattice level 1: a near-unique column
		spec.Columns = append(spec.Columns, dataset.ColumnSpec{Name: "k", Kind: dataset.ID})
		for c := 0; c < 9; c++ {
			spec.Columns = append(spec.Columns, dataset.ColumnSpec{Name: fmt.Sprintf("r%d", c), Kind: dataset.Random, Card: 8})
		}
	case 2: // keys around level 2-3
		for c := 0; c < 10; c++ {
			spec.Columns = append(spec.Columns, dataset.ColumnSpec{Name: fmt.Sprintf("r%d", c), Kind: dataset.Random, Card: 30})
		}
	case 3: // keys on high lattice levels
		for c := 0; c < 10; c++ {
			spec.Columns = append(spec.Columns, dataset.ColumnSpec{Name: fmt.Sprintf("r%d", c), Kind: dataset.Random, Card: 6})
		}
	case 4: // large R\Z: half the columns are derived (never in a key)
		for c := 0; c < 5; c++ {
			spec.Columns = append(spec.Columns, dataset.ColumnSpec{Name: fmt.Sprintf("r%d", c), Kind: dataset.Random, Card: 30})
		}
		for c := 0; c < 5; c++ {
			spec.Columns = append(spec.Columns, dataset.ColumnSpec{
				Name: fmt.Sprintf("d%d", c), Kind: dataset.Derived,
				Parents: []int{c % 5, (c + 1) % 5}, Card: 20, Salt: int64(60 + c),
			})
		}
	}
	return dataset.Generate(spec)
}
