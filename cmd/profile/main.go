// Command profile runs holistic data profiling on a CSV file and prints the
// discovered metadata: unary INDs, minimal UCCs, minimal FDs, and single-
// column statistics.
//
// Usage:
//
//	profile [-algorithm name] [-format text|json] [-timeout d] [-sep ,]
//	        [-no-header] [-max-rows N] [-stats] [-timings] [-seed N]
//	        [-workers N] [-max-cache-bytes N] [-nary K] [-approx eps] file.csv
//
// The strategy names accepted by -algorithm come from the engine registry;
// run with -h for the current list. -format json emits the same core.Report
// model the profiled server serves, so CLI and API output are identical for
// the same run.
//
// Exit status: 0 on success, 1 on any profiling or output error, 2 on usage
// errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"holistic/internal/core"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/stats"
)

// usageError distinguishes misuse (exit 2) from runtime failures (exit 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		var ue usageError
		if errors.As(err, &ue) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes the whole command; every failure surfaces as a returned error
// so main can map it to a non-zero exit status — profiling errors must never
// exit 0.
func run(args []string, out io.Writer) error {
	var (
		algorithm = flag.String("algorithm", core.StrategyMuds, "profiling strategy: "+strings.Join(core.Strategies(), "|"))
		format    = flag.String("format", "text", "output format: text|json (json emits the server's result model)")
		timeout   = flag.Duration("timeout", 0, "abort profiling after this duration (0 = no limit)")
		sep       = flag.String("sep", ",", "CSV field separator (single character)")
		noHeader  = flag.Bool("no-header", false, "input has no header row")
		maxRows   = flag.Int("max-rows", 0, "read at most N data rows (0 = all)")
		withStats = flag.Bool("stats", false, "also print single-column statistics")
		timings   = flag.Bool("timings", false, "print per-phase timings")
		seed      = flag.Int64("seed", 0, "random-walk seed (results are seed-independent)")
		workers   = flag.Int("workers", 0, "worker pool size for the parallel phases (0 = all CPUs, 1 = sequential; results are identical for every value)")
		cacheMax  = flag.Int64("max-cache-bytes", 0, "PLI cache byte budget (0 = default, -1 = unbudgeted); over budget the cache sheds and recomputes, results are identical for every value")
		naryArity = flag.Int("nary", 0, "also discover n-ary INDs up to this arity (0 = off)")
		approxEps = flag.Float64("approx", 0, "also discover approximate FDs with g3 error ≤ eps (0 = off)")
		sqlNulls  = flag.Bool("distinct-nulls", false, "SQL NULL semantics: empty fields compare unequal to each other")
		appendCSV = flag.String("append", "", "CSV file of rows to append incrementally after profiling the input (revalidation instead of re-discovery)")
		snapPath  = flag.String("snapshot", "", "profile snapshot file: resumed when it exists (with -append: skips the initial full profile), written/updated after the run")
	)
	flag.CommandLine.Parse(args)
	if flag.NArg() != 1 {
		return usageError{msg: "exactly one input file is required"}
	}
	if len(*sep) != 1 {
		return usageError{msg: "-sep must be a single character"}
	}
	if *format != "text" && *format != "json" {
		return usageError{msg: fmt.Sprintf("unknown -format %q (want text or json)", *format)}
	}
	if *naryArity < 0 {
		return usageError{msg: "-nary must be >= 0"}
	}
	if *approxEps < 0 || *approxEps >= 1 {
		return usageError{msg: "-approx must be in [0, 1)"}
	}
	// Reject unknown strategies before any input is read: a typo in
	// -algorithm should not cost a multi-gigabyte CSV parse.
	if _, ok := core.Lookup(*algorithm); !ok {
		return usageError{msg: fmt.Sprintf("unknown -algorithm %q (want one of %s)",
			*algorithm, strings.Join(core.Strategies(), "|"))}
	}

	// MemoSource keeps the parsed relation around for reporting, so the
	// input is read exactly once.
	src := &core.MemoSource{Src: core.CSVSource{
		Path: flag.Arg(0),
		Options: relation.CSVOptions{
			Comma:     rune((*sep)[0]),
			HasHeader: !*noHeader,
			MaxRows:   *maxRows,
			Relation:  relation.Options{DistinctNulls: *sqlNulls, Workers: *workers},
		},
	}}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := core.Options{Seed: *seed, Workers: *workers, MaxCacheBytes: *cacheMax}
	if *appendCSV != "" || *snapPath != "" {
		return runIncremental(ctx, src, *algorithm, opts, incrementalOptions{
			appendCSV: *appendCSV,
			snapPath:  *snapPath,
			sep:       rune((*sep)[0]),
			noHeader:  *noHeader,
			format:    *format,
		}, out, textOptions{
			algorithm: *algorithm,
			nary:      *naryArity,
			approxEps: *approxEps,
			withStats: *withStats,
			timings:   *timings,
		})
	}
	res, err := core.RunContext(ctx, *algorithm, src, opts, nil)
	// Anytime semantics: a deadline hit still prints the dependencies
	// confirmed before the stop — marked partial — and exits non-zero.
	timedOut := errors.Is(err, context.DeadlineExceeded) && res != nil
	if err != nil && !timedOut {
		return err
	}
	rel := src.Relation()

	if *format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(core.NewReport(rel, res, *withStats)); err != nil {
			return err
		}
	} else {
		if err := printText(out, rel, res, textOptions{
			algorithm: *algorithm,
			nary:      *naryArity,
			approxEps: *approxEps,
			withStats: *withStats,
			timings:   *timings,
		}); err != nil {
			return err
		}
	}
	if timedOut {
		return fmt.Errorf("timed out after %v (partial results above: every listed dependency is confirmed, more may exist)", *timeout)
	}
	return nil
}

type textOptions struct {
	algorithm string
	nary      int
	approxEps float64
	withStats bool
	timings   bool
}

// printText renders the human-readable report. Write errors (a closed pipe,
// a full disk) surface as a non-zero exit.
func printText(out io.Writer, rel *relation.Relation, res *core.Result, o textOptions) error {
	names := rel.ColumnNames()
	colName := func(c int) string { return names[c] }
	var werr error
	printf := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(out, format, args...)
		}
	}

	printf("# %s — %d columns × %d rows (%d duplicate rows removed)\n",
		rel.Name(), rel.NumColumns(), rel.NumRows(), rel.DuplicatesRemoved())
	printf("# algorithm=%s total=%v\n", o.algorithm, res.Total().Round(time.Microsecond))
	if res.Partial {
		printf("# PARTIAL: run interrupted; every dependency below is confirmed, more may exist\n")
	}
	printf("\n")

	if len(res.INDs) > 0 || o.algorithm != core.StrategyTane {
		printf("Unary inclusion dependencies (%d):\n", len(res.INDs))
		for _, d := range res.INDs {
			printf("  %s ⊆ %s\n", colName(d.Dependent), colName(d.Referenced))
		}
		printf("\n")
	}
	if len(res.UCCs) > 0 || o.algorithm == core.StrategyMuds || o.algorithm == core.StrategyHolisticFun || o.algorithm == core.StrategyBaseline {
		printf("Minimal unique column combinations (%d):\n", len(res.UCCs))
		for _, u := range res.UCCs {
			printf("  {%s}\n", joinCols(u.Columns(), names))
		}
		printf("\n")
	}
	printf("Minimal functional dependencies (%d):\n", len(res.FDs))
	for _, f := range res.FDs {
		printf("  [%s] → %s\n", joinCols(f.LHS.Columns(), names), colName(f.RHS))
	}

	if o.nary > 1 {
		nary := ind.Nary(rel, ind.Options{IgnoreNulls: true}, o.nary)
		printf("\nN-ary inclusion dependencies up to arity %d (%d):\n", o.nary, len(nary))
		for _, d := range nary {
			if len(d.Dependent) < 2 {
				continue // unary ones are listed above
			}
			printf("  [%s] ⊆ [%s]\n", joinCols(d.Dependent, names), joinCols(d.Referenced, names))
		}
	}

	if o.approxEps > 0 {
		approx := fd.ApproximateFDs(pli.NewProvider(rel, nil), o.approxEps, 3)
		printf("\nApproximate FDs with g3 ≤ %.3f (lhs ≤ 3 columns):\n", o.approxEps)
		for _, f := range approx {
			if f.Error == 0 {
				continue // exact FDs are listed above
			}
			printf("  [%s] → %s  (g3=%.3f)\n", joinCols(f.LHS.Columns(), names), colName(f.RHS), f.Error)
		}
	}

	if o.withStats {
		printf("\nColumn statistics:\n")
		printf("  %-20s %-8s %8s %8s %8s %10s\n", "column", "type", "distinct", "nulls", "unique%", "top-freq")
		for _, c := range stats.Profile(rel) {
			printf("  %-20s %-8s %8d %8d %7.1f%% %10d\n",
				c.Name, c.Type, c.Distinct, c.Nulls, 100*c.Uniqueness, c.Frequency)
		}
	}

	if o.timings {
		printf("\nPhase timings:\n")
		for _, p := range res.Phases {
			printf("  %-24s %v\n", p.Name, p.Duration.Round(time.Microsecond))
		}
		printf("  %-24s %d\n", "validity checks", res.Checks)
	}
	return werr
}

func joinCols(cols []int, names []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = names[c]
	}
	return strings.Join(parts, ", ")
}
