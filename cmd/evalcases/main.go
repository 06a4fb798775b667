// Command evalcases regenerates the application case studies of the paper
// (Section VI) on the simulated Kripke, FASTEST and RELeARN campaigns:
//
//	evalcases -kind power    # Fig. 4: median relative prediction error
//	evalcases -kind noise    # Fig. 5: noise-level distributions
//	evalcases -kind time     # Fig. 6: modeling time comparison
//	evalcases -kind models   # §VI-B: the models of the key kernels
//	evalcases -kind all
//	evalcases -app Kripke -kind power
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"extrapdnn/internal/apps"
	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/eval"
	"extrapdnn/internal/textplot"
)

func main() {
	netOpts, adaptSamples := cliutil.RegisterEvalFlags()
	var (
		kind      = flag.String("kind", "all", `"power", "noise", "time", "models" or "all"`)
		appName   = flag.String("app", "", "restrict to one case study (Kripke, FASTEST, RELeARN)")
		campaigns = flag.Int("campaigns", 1, "repeat each simulated campaign this many times and pool errors")
		plot      = flag.Bool("plot", false, "draw the figures as terminal charts in addition to the tables")
	)
	flag.Parse()

	pretrained, err := cliutil.LoadOrPretrain(context.Background(), *netOpts)
	if err != nil {
		fatal(err)
	}

	studies := apps.All()
	if *appName != "" {
		app := apps.ByName(*appName)
		if app == nil {
			fatal(fmt.Errorf("unknown case study %q", *appName))
		}
		studies = []*apps.App{app}
	}

	var results []eval.CaseResult
	for _, app := range studies {
		fmt.Fprintf(os.Stderr, "evaluating %s (%d kernels)...\n", app.Name, len(app.Kernels))
		res, err := eval.RunCaseStudy(app, eval.CaseConfig{
			Pretrained: pretrained,
			Adapt:      dnnmodel.AdaptConfig{SamplesPerClass: *adaptSamples, Precision: netOpts.Precision()},
			Seed:       netOpts.Seed,
			Campaigns:  *campaigns,
		})
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
	}

	if *kind == "power" || *kind == "all" {
		fmt.Println("== Predictive power at P+ (Fig. 4): relative error over performance-relevant kernels ==")
		fmt.Printf("%-10s | %-23s | %-23s | %s\n", "app", "regression med (mean)", "adaptive med (mean)", "paper (reg → adaptive)")
		paper := map[string]string{
			"Kripke": "22.28% → 13.45%", "FASTEST": "69.79% → 16.23%", "RELeARN": "7.12% → 7.12%",
		}
		for _, r := range results {
			fmt.Printf("%-10s | %9.2f%% (%8.2f%%) | %9.2f%% (%8.2f%%) | %s\n",
				r.App, r.RegMedianErr, r.RegMeanErr, r.AdaptMedianErr, r.AdaptMeanErr, paper[r.App])
		}
		fmt.Println()
	}
	if *plot && (*kind == "power" || *kind == "all") {
		var labels []string
		var vals []float64
		for _, r := range results {
			labels = append(labels, r.App+" reg", r.App+" adapt")
			vals = append(vals, r.RegMedianErr, r.AdaptMedianErr)
		}
		fmt.Print(textplot.BarChart("Fig. 4: median relative prediction error % at P+", labels, vals, 50))
		fmt.Println()
	}
	if *kind == "noise" || *kind == "all" {
		fmt.Println("== Noise-level distributions (Fig. 5) ==")
		fmt.Printf("%-10s | %-8s %-8s %-8s %-8s | %s\n", "app", "mean", "median", "min", "max", "paper mean/min/max")
		paper := map[string]string{
			"Kripke": "17.44 / 3.66 / 53.66", "FASTEST": "49.56 / 7.51 / 160.27", "RELeARN": "0.65 / 0.64 / 0.67",
		}
		for _, r := range results {
			fmt.Printf("%-10s | %7.2f%% %7.2f%% %7.2f%% %7.2f%% | %s\n",
				r.App, r.Noise.Mean*100, r.Noise.Median*100, r.Noise.Min*100, r.Noise.Max*100, paper[r.App])
		}
		fmt.Println()
	}
	if *kind == "time" || *kind == "all" {
		fmt.Println("== Modeling time (Fig. 6) ==")
		fmt.Printf("%-10s | %-12s | %-12s | %-8s | %s\n", "app", "regression", "adaptive", "ratio", "paper ratio")
		paper := map[string]string{"Kripke": "~65x", "FASTEST": "~54x", "RELeARN": "~64x"}
		for _, r := range results {
			ratio := float64(r.AdaptTime) / float64(r.RegTime)
			fmt.Printf("%-10s | %12v | %12v | %6.1fx | %s\n",
				r.App, r.RegTime.Round(1e6), r.AdaptTime.Round(1e6), ratio, paper[r.App])
		}
		fmt.Println()
	}
	if *plot && (*kind == "time" || *kind == "all") {
		var labels []string
		var vals []float64
		for _, r := range results {
			labels = append(labels, r.App+" reg", r.App+" adapt")
			vals = append(vals, r.RegTime.Seconds(), r.AdaptTime.Seconds())
		}
		fmt.Print(textplot.BarChart("Fig. 6: modeling time in seconds", labels, vals, 50))
		fmt.Println()
	}
	if *kind == "models" || *kind == "all" {
		fmt.Println("== Key kernel models (Section VI-B) ==")
		for _, r := range results {
			for _, k := range r.Kernels {
				if !keyKernel(r.App, k.Kernel) {
					continue
				}
				fmt.Printf("%s / %s\n", r.App, k.Kernel)
				fmt.Printf("  regression: %s\n", k.RegModel)
				fmt.Printf("  adaptive:   %s\n", k.AdaptModel)
				switch {
				case r.App == "Kripke":
					fmt.Printf("  paper:      8.51 + 0.11*x1^(1/3)*x2*x3^(4/5)\n")
				case r.App == "RELeARN":
					fmt.Printf("  paper:      -2216.41 + 325.71*log2(x1) + 0.01*x2*log2(x2)^2 (adaptive)\n")
				}
			}
		}
	}
}

// keyKernel marks the kernels whose models the paper discusses explicitly.
func keyKernel(app, kernel string) bool {
	return (app == "Kripke" && kernel == "SweepSolver") ||
		(app == "RELeARN" && kernel == "ConnectivityUpdate")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evalcases:", err)
	os.Exit(1)
}
