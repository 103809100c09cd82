// Command benchtables regenerates every table and figure of the paper's
// evaluation section against the synthetic Reuters-like corpus.
//
// Usage:
//
//	benchtables                    # all tables and figures, quick profile
//	benchtables -table 4           # a single table (1, 2, 4, 5, 6)
//	benchtables -figure 5          # a single figure (3, 5, 6)
//	benchtables -ablations         # the DESIGN.md ablation suite
//	benchtables -profile full      # paper-scale budgets (very long)
package main

import (
	"flag"
	"fmt"
	"os"

	"temporaldoc/internal/experiments"
	"temporaldoc/internal/lgp"
)

func main() {
	profile := flag.String("profile", "quick", "experiment profile: smoke, quick, full")
	table := flag.Int("table", 0, "regenerate a single table (1, 2, 4, 5, 6)")
	figure := flag.Int("figure", 0, "regenerate a single figure (3, 5, 6)")
	ablations := flag.Bool("ablations", false, "run the ablation suite instead of the paper tables")
	analysis := flag.Bool("analysis", false, "print the vocabulary-overlap and confusion analysis (section 8.1 discussion)")
	temporal := flag.Bool("temporal", false, "run the extension table: ProSys vs the related-work temporal systems")
	significance := flag.Bool("significance", false, "run the Yang&Liu significance tests: ProSys vs baselines under MI")
	seed := flag.Int64("seed", 0, "override profile seed")
	scale := flag.Float64("scale", 0, "override corpus scale")
	flag.Parse()

	p, err := experiments.ProfileByName(*profile, *seed, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(2)
	}

	c := must(p.Corpus())
	fmt.Printf("profile %s: %d train / %d test documents, %d categories\n\n",
		p.Name, len(c.Train), len(c.Test), len(c.Categories))

	// One run serves every table and figure below, so each feature
	// selection's model trains once.
	r := experiments.NewRun(p, c)
	switch {
	case *ablations:
		for _, res := range must(r.Ablations()) {
			fmt.Println(res.Format())
		}
		return
	case *analysis:
		fmt.Println(experiments.CategoryOverlap(c).Format())
		fmt.Println(must(r.Confusion()).Format())
		return
	case *temporal:
		fmt.Println(must(r.TableTemporal()).Format())
		return
	case *significance:
		fmt.Println(must(r.Significance()))
		return
	}

	wantTable := func(n int) bool { return *table == 0 && *figure == 0 || *table == n }
	wantFigure := func(n int) bool { return *table == 0 && *figure == 0 || *figure == n }

	if wantTable(1) {
		fmt.Println(experiments.FormatTable1(must(r.Table1())))
	}
	if wantTable(2) {
		fmt.Println(experiments.FormatTable2(lgp.DefaultConfig()))
	}
	if wantTable(4) {
		fmt.Println(must(r.Table4()).Format())
	}
	if wantTable(5) {
		fmt.Println(must(r.Table5()).Format())
	}
	if wantTable(6) {
		fmt.Println(must(r.Table6()).Format())
	}
	if wantFigure(3) {
		fmt.Println(must(r.Figure3("earn")))
	}
	if wantFigure(5) {
		fmt.Println(experiments.FormatTrace(
			"Figure 5. Classification label changes for a single-labeled document", must(r.Figure5("earn"))))
	}
	if wantFigure(6) {
		fmt.Println(experiments.FormatTrace(
			"Figure 6. Classification label changes for a multi-labeled document", must(r.Figure6())))
	}
}

// must returns v, or exits through fatal when err is set.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
	os.Exit(1)
}
