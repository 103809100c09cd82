// Command tdc is the temporal document classifier CLI: it generates the
// synthetic Reuters-like corpus, trains the paper's system, evaluates it
// against the baselines, prints evolved rules and renders word-tracking
// traces.
//
// Usage:
//
//	tdc generate -scale 0.05 -out corpus.sgm
//	tdc evaluate -method df -profile quick
//	tdc compare  -method mi -profile quick
//	tdc trace    -category earn -profile smoke
//	tdc rule     -category earn -profile smoke
//	tdc publish  -models-dir models -name earn -version v1 -snapshot model.json
//	tdc serve    -model model.json -addr localhost:8080
//	tdc serve    -models-dir models -resident 4
//
// All subcommands are deterministic for a fixed -seed; serve is the
// long-lived exception (it answers live traffic, but classification
// itself stays deterministic per model snapshot).
package main

import (
	"flag"
	"fmt"
	"os"

	"temporaldoc/internal/core"
	"temporaldoc/internal/experiments"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/metrics"
	"temporaldoc/internal/reuters"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "rule":
		err = cmdRule(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "publish":
		err = cmdPublish(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "sizing":
		err = cmdSizing(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tdc: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tdc: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `tdc — temporal document classifier (Luo & Zincir-Heywood, ICDE 2007)

Subcommands:
  generate   write the synthetic Reuters-like corpus as SGML
  evaluate   train ProSys under one feature selection and report F1
  compare    train ProSys and the baselines, print the comparison table
  trace      render a word-tracking trace (Figures 5/6)
  rule       print a category's evolved RLGP rule
  train      train a model and persist it as JSON
  classify   classify SGML documents with a persisted model
  publish    publish a snapshot into a model registry directory
  serve      serve a persisted model (or model registry) over an HTTP JSON API
  stats      print corpus statistics
  sizing     search SOM geometries by quantisation error (AWC study)
  inspect    summarise a persisted model (rules, thresholds, BMUs)

Run 'tdc <subcommand> -h' for flags.`)
}

func methodByName(name string) (featsel.Method, error) {
	if m := featsel.Method(name); featsel.Known(m) {
		return m, nil
	}
	return "", fmt.Errorf("unknown feature method %q (one of %v)", name, featsel.AllMethods())
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "fraction of the ModApte split sizes")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := reuters.DefaultGenConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	c, err := reuters.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := reuters.RenderSGML(f, c, *seed); err != nil {
			_ = f.Close()
			return err
		}
		// A dropped Close error on a just-written file can hide lost data.
		if err := f.Close(); err != nil {
			return err
		}
	} else if err := reuters.RenderSGML(os.Stdout, c, *seed); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d train / %d test documents across %d categories\n",
		len(c.Train), len(c.Test), len(c.Categories))
	return nil
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	method := fs.String("method", "df", "feature selection: df, ig, mi, nouns, chi")
	profile := fs.String("profile", "quick", "experiment profile: smoke, quick, full")
	seed := fs.Int64("seed", 0, "override profile seed")
	scale := fs.Float64("scale", 0, "override corpus scale")
	breakeven := fs.Bool("breakeven", false, "also report per-category P/R break-even and average precision")
	pf := registerPerfFlags(fs)
	tf := registerTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := experiments.ProfileByName(*profile, *seed, *scale)
	if err != nil {
		return err
	}
	stop, err := pf.apply()
	if err != nil {
		return err
	}
	defer stop()
	ts, err := tf.start()
	if err != nil {
		return err
	}
	defer ts.close()
	ts.apply(&p)
	m, err := methodByName(*method)
	if err != nil {
		return err
	}
	c, err := p.Corpus()
	if err != nil {
		return err
	}
	fmt.Printf("profile %s, corpus %d train / %d test, method %s\n",
		p.Name, len(c.Train), len(c.Test), m)
	model, err := p.TrainProSys(c, m)
	if err != nil {
		return err
	}
	set, err := model.Evaluate(c.Test)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %8s %8s\n", "Category", "Recall", "Prec", "F1")
	for _, cat := range c.Categories {
		tab := set.Table(cat)
		fmt.Printf("%-12s %8.2f %8.2f %8.2f\n", cat, tab.Recall(), tab.Precision(), tab.F1())
	}
	fmt.Printf("%-12s %26.2f\n", "Macro Ave.", set.MacroF1())
	fmt.Printf("%-12s %26.2f\n", "Micro Ave.", set.MicroF1())
	if *breakeven {
		fmt.Printf("\n%-12s %10s %10s\n", "Category", "BreakEven", "AvgPrec")
		for _, cat := range c.Categories {
			scores := make([]float64, len(c.Test))
			labels := make([]bool, len(c.Test))
			for i := range c.Test {
				s, err := model.Score(cat, &c.Test[i])
				if err != nil {
					return err
				}
				scores[i] = s
				labels[i] = c.Test[i].HasCategory(cat)
			}
			be, err := metrics.BreakEven(scores, labels)
			if err != nil {
				fmt.Printf("%-12s %10s %10s\n", cat, "n/a", "n/a")
				continue
			}
			ap, err := metrics.AveragePrecision(scores, labels)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %10.2f %10.2f\n", cat, be, ap)
		}
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	method := fs.String("method", "mi", "comparison table: mi (Table 5) or ig (Table 6)")
	profile := fs.String("profile", "quick", "experiment profile: smoke, quick, full")
	seed := fs.Int64("seed", 0, "override profile seed")
	scale := fs.Float64("scale", 0, "override corpus scale")
	pf := registerPerfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := experiments.ProfileByName(*profile, *seed, *scale)
	if err != nil {
		return err
	}
	stop, err := pf.apply()
	if err != nil {
		return err
	}
	defer stop()
	c, err := p.Corpus()
	if err != nil {
		return err
	}
	switch *method {
	case "mi":
		table, err := experiments.RunTable5(p, c)
		if err != nil {
			return err
		}
		fmt.Print(table.Format())
	case "ig":
		table, err := experiments.RunTable6(p, c)
		if err != nil {
			return err
		}
		fmt.Print(table.Format())
	default:
		return fmt.Errorf("unknown comparison %q (mi, ig)", *method)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	category := fs.String("category", "earn", "category for the single-label trace")
	multi := fs.Bool("multi", false, "trace a multi-label document instead (Figure 6)")
	profile := fs.String("profile", "smoke", "experiment profile: smoke, quick, full")
	seed := fs.Int64("seed", 0, "override profile seed")
	scale := fs.Float64("scale", 0, "override corpus scale")
	svg := fs.String("svg", "", "also write the trace as an SVG chart to this file")
	pf := registerPerfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := experiments.ProfileByName(*profile, *seed, *scale)
	if err != nil {
		return err
	}
	stop, err := pf.apply()
	if err != nil {
		return err
	}
	defer stop()
	c, err := p.Corpus()
	if err != nil {
		return err
	}
	var res *experiments.TraceResult
	var model *core.Model
	title := "Figure 5. Classification label changes for a single-labeled document"
	if *multi {
		title = "Figure 6. Classification label changes for a multi-labeled document"
		res, model, err = experiments.RunFigure6(p, c)
	} else {
		res, model, err = experiments.RunFigure5(p, c, *category)
	}
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTrace(title, res))
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			return err
		}
		if err := experiments.TraceChart(title, res, model).WriteSVG(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "SVG chart written to %s\n", *svg)
	}
	return nil
}

func cmdRule(args []string) error {
	fs := flag.NewFlagSet("rule", flag.ExitOnError)
	category := fs.String("category", "earn", "category whose evolved rule to print")
	method := fs.String("method", "mi", "feature selection: df, ig, mi, nouns, chi")
	profile := fs.String("profile", "smoke", "experiment profile: smoke, quick, full")
	seed := fs.Int64("seed", 0, "override profile seed")
	scale := fs.Float64("scale", 0, "override corpus scale")
	pf := registerPerfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := experiments.ProfileByName(*profile, *seed, *scale)
	if err != nil {
		return err
	}
	stop, err := pf.apply()
	if err != nil {
		return err
	}
	defer stop()
	m, err := methodByName(*method)
	if err != nil {
		return err
	}
	c, err := p.Corpus()
	if err != nil {
		return err
	}
	model, err := p.TrainProSys(c, m)
	if err != nil {
		return err
	}
	rule, err := model.Rule(*category)
	if err != nil {
		return err
	}
	cm := model.CategoryModelFor(*category)
	fmt.Printf("Evolved rule for category %q (fitness %.2f, threshold %.3f):\n%s\n",
		*category, cm.Fitness, cm.Threshold, rule)
	simplified, err := model.SimplifiedRule(*category)
	if err != nil {
		return err
	}
	fmt.Printf("\nSimplified (introns removed):\n%s\n", simplified)
	return nil
}
