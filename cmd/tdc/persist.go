package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/experiments"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/textproc"
)

// cmdTrain trains a model (on the synthetic corpus or supplied SGML
// files) and persists it as JSON.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	method := fs.String("method", "df", "feature selection: df, ig, mi, nouns, chi")
	prof := registerProfileFlags(fs, "smoke", "experiment profile: smoke, quick, full")
	out := fs.String("out", "model.json", "output model file")
	sgml := fs.String("sgml", "", "comma-free glob of SGML training files (default: synthetic corpus)")
	pf := registerPerfFlags(fs)
	tf := registerTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := prof.profile()
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
	c, err := loadOrGenerate(p, *sgml)
	if err != nil {
		return err
	}
	ts.log.Info("training", "documents", len(c.Train), "categories", len(c.Categories))
	cfg := p.CoreConfig(m)
	cfg.Progress = ts.trainProgress()
	model, err := core.Train(cfg, c)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := model.Save(f); err != nil {
		_ = f.Close()
		return err
	}
	info, _ := f.Stat()
	var size int64
	if info != nil {
		size = info.Size()
	}
	// Check Close before announcing success: a buffered-write failure
	// here means the model on disk is truncated.
	if err := f.Close(); err != nil {
		return err
	}
	ts.log.Info("model written", "path", *out, "bytes", size)
	return nil
}

// cmdClassify loads a persisted model and classifies the documents of an
// SGML file (or the synthetic test split when none is given).
func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "persisted model file")
	method := fs.String("method", "", "require the snapshot's feature-selection method (df, ig, mi, nouns, chi; empty accepts any)")
	sgml := fs.String("sgml", "", "SGML file with documents to classify (default: synthetic test split)")
	prof := registerProfileFlags(fs, "smoke", "profile for the default synthetic corpus")
	limit := fs.Int("limit", 20, "maximum documents to print")
	tf := registerTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ts, err := tf.start()
	if err != nil {
		return err
	}
	defer ts.close()
	model, info, err := core.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	// A model scored under the wrong feature-selection method silently
	// produces garbage (the keep-sets and encoder belong to the
	// recorded method), so an explicit request must match the snapshot
	// header exactly.
	if *method != "" {
		want, err := methodByName(*method)
		if err != nil {
			return err
		}
		if got := model.FeatureMethod(); got != want {
			return fmt.Errorf("model %s was trained with feature method %q, not the requested %q",
				*modelPath, got, want)
		}
	}
	ts.log.Info("model loaded", "path", info.Path, "sha256", info.SHA256,
		"method", string(model.FeatureMethod()))
	// Loaded models start silent; retrofit the session's registry so
	// classification latency and cache hit rates land in -metrics.
	model.AttachTelemetry(ts.reg)
	p, err := prof.profile()
	if err != nil {
		return err
	}
	c, err := loadOrGenerate(p, *sgml)
	if err != nil {
		return err
	}
	docs := c.Test
	if len(docs) > *limit {
		docs = docs[:*limit]
	}
	correct, total := 0, 0
	for i := range docs {
		predicted, err := model.Classify(&docs[i])
		if err != nil {
			return err
		}
		fmt.Printf("%-22s true=%v predicted=%v\n", docs[i].ID, docs[i].Categories, predicted)
		for _, cat := range model.Categories() {
			actual := docs[i].HasCategory(cat)
			pred := false
			for _, pc := range predicted {
				if pc == cat {
					pred = true
					break
				}
			}
			if actual == pred {
				correct++
			}
			total++
		}
	}
	fmt.Printf("\nper-(document,category) accuracy: %.2f over %d decisions\n",
		float64(correct)/float64(total), total)
	return nil
}

// cmdStats prints corpus statistics for the synthetic corpus or a
// supplied SGML file.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	prof := registerProfileFlags(fs, "quick", "experiment profile: smoke, quick, full")
	sgml := fs.String("sgml", "", "SGML file to analyse (default: synthetic corpus)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := prof.profile()
	if err != nil {
		return err
	}
	c, err := loadOrGenerate(p, *sgml)
	if err != nil {
		return err
	}
	fmt.Println("== training split ==")
	fmt.Print(corpus.ComputeStats(c.Train).Format())
	fmt.Println("\n== test split ==")
	fmt.Print(corpus.ComputeStats(c.Test).Format())
	fmt.Println("\n== category vocabulary overlap ==")
	fmt.Print(experiments.CategoryOverlap(c).Format())
	return nil
}

// cmdInspect prints the inspection report of a persisted model.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "persisted model file")
	rules := fs.Bool("rules", false, "also print each category's simplified rule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	model, err := core.Load(f)
	if err != nil {
		return err
	}
	fmt.Print(model.Report().Format())
	if *rules {
		for _, cat := range model.Categories() {
			rule, err := model.SimplifiedRule(cat)
			if err != nil {
				return err
			}
			fmt.Printf("\n%s:\n  %s\n", cat, rule)
		}
	}
	return nil
}

// loadOrGenerate loads an SGML corpus from a file or generates the
// profile's synthetic one.
func loadOrGenerate(p experiments.Profile, sgmlPath string) (*corpus.Corpus, error) {
	if sgmlPath == "" {
		return p.Corpus()
	}
	f, err := os.Open(sgmlPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raws, err := reuters.ParseSGML(io.Reader(f))
	if err != nil {
		return nil, err
	}
	pre := textproc.NewPreprocessor(textproc.Options{})
	c := reuters.BuildCorpus(raws, reuters.Top10, pre)
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("loaded corpus: %w", err)
	}
	return c, nil
}
