package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"temporaldoc/internal/experiments"
	"temporaldoc/internal/hsom"
)

// cmdSizing reproduces the paper's AWC-based map-size study: it trains a
// character SOM at several candidate geometries over the profile corpus
// and reports AWC / quantisation error per geometry plus the elbow-rule
// choice (the paper picked 7x13 for characters and 8x8 for words this
// way).
func cmdSizing(args []string) error {
	fs := flag.NewFlagSet("sizing", flag.ExitOnError)
	profile := fs.String("profile", "smoke", "experiment profile: smoke, quick, full")
	seed := fs.Int64("seed", 0, "override profile seed")
	scale := fs.Float64("scale", 0, "override corpus scale")
	epochs := fs.Int("epochs", 2, "training epochs per candidate")
	candidates := fs.String("candidates", "4x4,5x5,7x7,7x13,10x10,12x12",
		"comma-separated WxH candidate geometries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := experiments.ProfileByName(*profile, *seed, *scale)
	if err != nil {
		return err
	}
	c, err := p.Corpus()
	if err != nil {
		return err
	}
	var cands [][2]int
	for _, part := range strings.Split(*candidates, ",") {
		wh := strings.Split(strings.TrimSpace(part), "x")
		if len(wh) != 2 {
			return fmt.Errorf("bad candidate %q (want WxH)", part)
		}
		w, err1 := strconv.Atoi(wh[0])
		h, err2 := strconv.Atoi(wh[1])
		if err1 != nil || err2 != nil || w < 1 || h < 1 {
			return fmt.Errorf("bad candidate %q", part)
		}
		cands = append(cands, [2]int{w, h})
	}

	// Character inputs of the training corpus, as the first-level SOM
	// sees them.
	var inputs [][]float64
	for i := range c.Train {
		for _, w := range c.Train[i].Words {
			inputs = append(inputs, hsom.CharInputs(w)...)
		}
	}
	fmt.Printf("searching %d geometries over %d character inputs\n\n", len(cands), len(inputs))
	results, best, err := hsom.SuggestMapSize(inputs, *epochs, p.Seed, cands)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %12s %10s\n", "size", "units", "finalAWC", "QE")
	for i, r := range results {
		mark := " "
		if i == best {
			mark = " <= chosen"
		}
		fmt.Printf("%dx%-6d %8d %12.5f %10.4f%s\n",
			r.Width, r.Height, r.Units, r.FinalAWC, r.QuantizationError, mark)
	}
	return nil
}
