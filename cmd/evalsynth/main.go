// Command evalsynth regenerates the synthetic evaluation of the paper
// (Fig. 3): model accuracy and predictive power of the regression baseline
// versus the adaptive modeler over a sweep of noise levels, plus the
// noise-estimator validation quoted in Section IV-B.
//
//	evalsynth -m 1 -kind accuracy -functions 200        # Fig. 3(a)
//	evalsynth -m 2 -kind power -functions 200           # Fig. 3(e)
//	evalsynth -kind noiseest                            # §IV-B, 4.93% claim
//	evalsynth -m 1 -kind all -net network.bin -functions 1000
//
// Output is a table on stdout; progress goes to stderr.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/eval"
	"extrapdnn/internal/textplot"
)

func main() {
	netOpts, adaptSamples := cliutil.RegisterEvalFlags()
	var (
		m          = flag.Int("m", 1, "number of model parameters (1, 2 or 3)")
		kind       = flag.String("kind", "all", `what to evaluate: "accuracy", "power", "crossover", "ablation", "noiseest" or "all"`)
		functions  = flag.Int("functions", 100, "test functions per noise level (paper: 100000)")
		levelsFlag = flag.String("levels", "2,5,10,20,50,75,100", "noise levels in percent")
		threshold  = flag.Float64("threshold", 0.20, "adaptive noise threshold")
		csvPath    = flag.String("csv", "", "also write the sweep rows as CSV to this file")
		plot       = flag.Bool("plot", false, "draw the figures as terminal charts in addition to the tables")
	)
	flag.Parse()

	if *kind == "noiseest" || *kind == "all" {
		errFrac := eval.NoiseEstimatorError(netOpts.Seed, 100, nil)
		fmt.Printf("== Noise estimator (Section IV-B) ==\n")
		fmt.Printf("mean relative estimation error: %.2f%% (paper: 4.93%%)\n\n", errFrac*100)
		if *kind == "noiseest" {
			return
		}
	}

	levels, err := cliutil.ParseLevels(*levelsFlag)
	if err != nil {
		fatal(err)
	}
	pretrained, err := cliutil.LoadOrPretrain(context.Background(), *netOpts)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "running synthetic sweep: m=%d, %d functions x %d levels\n",
		*m, *functions, len(levels))
	rows, err := eval.RunSynth(eval.SynthConfig{
		NumParams:      *m,
		NoiseLevels:    levels,
		Functions:      *functions,
		Seed:           netOpts.Seed,
		Pretrained:     pretrained,
		Adapt:          dnnmodel.AdaptConfig{SamplesPerClass: *adaptSamples, Precision: netOpts.Precision()},
		NoiseThreshold: *threshold,
	})
	if err != nil {
		fatal(err)
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, *m, rows); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote CSV to %s\n", *csvPath)
	}

	if *plot && (*kind == "accuracy" || *kind == "all") {
		xs := make([]float64, len(rows))
		reg := make([]float64, len(rows))
		adapt := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = r.Noise * 100
			reg[i] = r.RegAcc[0] * 100
			adapt[i] = r.AdaptAcc[0] * 100
		}
		fmt.Print(textplot.LineChart(
			fmt.Sprintf("Fig. 3%s: %% correct models (d<=1/4) vs noise %%, m=%d", panel(*m, true), *m),
			xs,
			[]textplot.Series{
				{Name: "regression", Marker: 'r', Y: reg},
				{Name: "adaptive", Marker: 'a', Y: adapt},
			}, 56, 12))
		fmt.Println()
	}
	if *plot && (*kind == "power" || *kind == "all") {
		xs := make([]float64, len(rows))
		reg := make([]float64, len(rows))
		adapt := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = r.Noise * 100
			reg[i] = r.RegErr[3]
			adapt[i] = r.AdaptErr[3]
		}
		fmt.Print(textplot.LineChart(
			fmt.Sprintf("Fig. 3%s: median rel. error %% at P4+ vs noise %%, m=%d", panel(*m, false), *m),
			xs,
			[]textplot.Series{
				{Name: "regression", Marker: 'r', Y: reg},
				{Name: "adaptive", Marker: 'a', Y: adapt},
			}, 56, 12))
		fmt.Println()
	}

	if *kind == "accuracy" || *kind == "all" {
		fmt.Printf("== Model accuracy, m=%d (Fig. 3%s) ==\n", *m, panel(*m, true))
		fmt.Printf("%-8s | %-26s | %-26s\n", "noise", "regression d<=1/4 1/3 1/2", "adaptive d<=1/4 1/3 1/2")
		for _, r := range rows {
			fmt.Printf("%6.0f%%  |   %6.1f%% %6.1f%% %6.1f%%   |   %6.1f%% %6.1f%% %6.1f%%\n",
				r.Noise*100,
				r.RegAcc[0]*100, r.RegAcc[1]*100, r.RegAcc[2]*100,
				r.AdaptAcc[0]*100, r.AdaptAcc[1]*100, r.AdaptAcc[2]*100)
		}
		fmt.Println()
	}
	if *kind == "crossover" || *kind == "all" {
		fmt.Printf("== Modeler crossover, m=%d (Section IV-A threshold analysis) ==\n", *m)
		fmt.Printf("%-8s | %-10s | %-10s\n", "noise", "reg d<=1/2", "dnn d<=1/2")
		for _, r := range rows {
			fmt.Printf("%6.0f%%  | %8.1f%% | %8.1f%%\n", r.Noise*100, r.RegAcc[2]*100, r.DNNAcc[2]*100)
		}
		level := eval.CrossoverFromRows(rows, 2)
		if level == level { // not NaN
			fmt.Printf("accuracy curves cross at ~%.0f%% noise → suggested NoiseThreshold %.2f\n\n", level*100, level)
		} else {
			fmt.Printf("no crossover inside the swept range\n\n")
		}
	}
	if *kind == "ablation" {
		fmt.Printf("== Domain-adaptation ablation, m=%d (DNN-only accuracy, d<=1/2) ==\n", *m)
		noAdapt, err := eval.RunSynth(eval.SynthConfig{
			NumParams:         *m,
			NoiseLevels:       levels,
			Functions:         *functions,
			Seed:              netOpts.Seed,
			Pretrained:        pretrained,
			DisableAdaptation: true,
			NoiseThreshold:    *threshold,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s | %-14s | %-14s\n", "noise", "pretrained", "domain-adapted")
		for i, r := range rows {
			fmt.Printf("%6.0f%%  | %12.1f%% | %12.1f%%\n",
				r.Noise*100, noAdapt[i].DNNAcc[2]*100, r.DNNAcc[2]*100)
		}
		fmt.Println()
	}
	if *kind == "power" || *kind == "all" {
		fmt.Printf("== Predictive power, m=%d (Fig. 3%s): median relative error %% at P1+..P4+ ==\n", *m, panel(*m, false))
		fmt.Printf("%-8s | %-38s | %-38s\n", "noise", "regression P1+ P2+ P3+ P4+", "adaptive P1+ P2+ P3+ P4+")
		for _, r := range rows {
			fmt.Printf("%6.0f%%  | %8.2f %8.2f %8.2f %8.2f  | %8.2f %8.2f %8.2f %8.2f\n",
				r.Noise*100,
				r.RegErr[0], r.RegErr[1], r.RegErr[2], r.RegErr[3],
				r.AdaptErr[0], r.AdaptErr[1], r.AdaptErr[2], r.AdaptErr[3])
		}
		fmt.Println()
	}
}

// panel maps the parameter count to the paper's subfigure letter.
func panel(m int, accuracy bool) string {
	letters := map[int]string{1: "a", 2: "b", 3: "c"}
	if !accuracy {
		letters = map[int]string{1: "d", 2: "e", 3: "f"}
	}
	if l, ok := letters[m]; ok {
		return "(" + l + ")"
	}
	return ""
}

// writeCSV dumps the sweep rows in a plot-friendly layout.
func writeCSV(path string, m int, rows []eval.SynthRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	header := []string{"m", "noise_pct", "functions",
		"reg_acc_14", "reg_acc_13", "reg_acc_12",
		"dnn_acc_14", "dnn_acc_13", "dnn_acc_12",
		"adapt_acc_14", "adapt_acc_13", "adapt_acc_12"}
	for e := 1; e <= 4; e++ {
		header = append(header, fmt.Sprintf("reg_err_p%d", e), fmt.Sprintf("adapt_err_p%d", e))
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(m),
			fmt.Sprintf("%g", r.Noise*100),
			strconv.Itoa(r.Functions),
		}
		for _, a := range [][3]float64{r.RegAcc, r.DNNAcc, r.AdaptAcc} {
			for _, v := range a {
				rec = append(rec, fmt.Sprintf("%.4f", v))
			}
		}
		for e := 0; e < 4 && e < len(r.RegErr); e++ {
			rec = append(rec, fmt.Sprintf("%.4f", r.RegErr[e]), fmt.Sprintf("%.4f", r.AdaptErr[e]))
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evalsynth:", err)
	os.Exit(1)
}
