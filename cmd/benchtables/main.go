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

	"temporaldoc/internal/corpus"
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

	c, err := p.Corpus()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("profile %s: %d train / %d test documents, %d categories\n\n",
		p.Name, len(c.Train), len(c.Test), len(c.Categories))

	if *ablations {
		runAblations(p, c)
		return
	}
	if *analysis {
		runAnalysis(p, c)
		return
	}
	if *temporal {
		table, err := experiments.RunTableTemporal(p, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(table.Format())
		return
	}
	if *significance {
		out, err := experiments.RunSignificance(p, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		return
	}

	wantTable := func(n int) bool { return *table == 0 && *figure == 0 || *table == n }
	wantFigure := func(n int) bool { return *table == 0 && *figure == 0 || *figure == n }

	if wantTable(1) {
		rows, err := experiments.RunTable1(p, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable1(rows))
	}
	if wantTable(2) {
		fmt.Println(experiments.FormatTable2(lgp.DefaultConfig()))
	}
	if wantTable(4) {
		t4, err := experiments.RunTable4(p, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t4.Format())
	}
	if wantTable(5) {
		t5, err := experiments.RunTable5(p, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t5.Format())
	}
	if wantTable(6) {
		t6, err := experiments.RunTable6(p, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t6.Format())
	}
	if wantFigure(3) {
		out, err := experiments.RunFigure3(p, c, "earn")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if wantFigure(5) {
		res, _, err := experiments.RunFigure5(p, c, "earn")
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTrace(
			"Figure 5. Classification label changes for a single-labeled document", res))
	}
	if wantFigure(6) {
		res, _, err := experiments.RunFigure6(p, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTrace(
			"Figure 6. Classification label changes for a multi-labeled document", res))
	}
}

func runAblations(p experiments.Profile, c *corpus.Corpus) {
	results, err := experiments.RunAblations(p, c)
	if err != nil {
		fatal(err)
	}
	for _, res := range results {
		fmt.Println(res.Format())
	}
}

func runAnalysis(p experiments.Profile, c *corpus.Corpus) {
	fmt.Println(experiments.CategoryOverlap(c).Format())
	model, err := p.TrainProSys(c, "mi")
	if err != nil {
		fatal(err)
	}
	cm, err := experiments.RunConfusion(model, c)
	if err != nil {
		fatal(err)
	}
	fmt.Println(cm.Format())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
	os.Exit(1)
}
