// Command modeleval evaluates a PMNF performance model — as printed by
// perfmodeler or written by hand — at given parameter values, or tabulates
// it over a scaling range:
//
//	modeleval -model "8.51 + 0.11*x1^(1/3)*x2*x3^(4/5)" -at 32768,12,160
//	modeleval -model "5 + 2*x1*log2(x1)" -sweep 1 -from 64 -to 4096 -steps 7
//
// A sweep doubles (geometric spacing) parameter -sweep from -from to -to
// while holding the remaining parameters at the values given by -at. To
// model every kernel of an application profile and evaluate each model at a
// point, run perfmodeler -profile app.json -predict 32768,12.
//
// Exit codes: 0 success, 1 fatal error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/pmnf"
)

func main() {
	var (
		modelStr = flag.String("model", "", "PMNF model expression")
		at       = flag.String("at", "", "comma-separated parameter values")
		sweep    = flag.Int("sweep", 0, "1-based index of the parameter to sweep (0 = no sweep)")
		from     = flag.Float64("from", 0, "sweep start value")
		to       = flag.Float64("to", 0, "sweep end value")
		steps    = flag.Int("steps", 8, "sweep steps")
	)
	flag.Parse()

	if *modelStr == "" {
		fatal(fmt.Errorf("-model is required"))
	}
	model, err := pmnf.Parse(*modelStr)
	if err != nil {
		fatal(err)
	}
	m := model.NumParams()

	values := make([]float64, m)
	if *at != "" {
		if values, err = cliutil.ParsePoint(*at, m); err != nil {
			fatal(fmt.Errorf("-at: %w", err))
		}
	}

	fmt.Printf("model: %s\n", model)
	if *sweep == 0 {
		if *at == "" {
			fatal(fmt.Errorf("need -at or -sweep"))
		}
		fmt.Printf("f(%s) = %g\n", *at, model.Eval(values))
		return
	}

	idx := *sweep - 1
	if idx < 0 || idx >= m {
		fatal(fmt.Errorf("-sweep %d out of range for %d parameters", *sweep, m))
	}
	if *from <= 0 || *to <= *from || *steps < 2 {
		fatal(fmt.Errorf("need 0 < -from < -to and -steps >= 2"))
	}
	ratio := math.Pow(*to / *from, 1/float64(*steps-1))
	fmt.Printf("%-14s | %s\n", fmt.Sprintf("x%d", *sweep), "f")
	x := *from
	for s := 0; s < *steps; s++ {
		values[idx] = x
		fmt.Printf("%-14g | %g\n", x, model.Eval(values))
		x *= ratio
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "modeleval:", err)
	os.Exit(cliutil.ExitFatal)
}
