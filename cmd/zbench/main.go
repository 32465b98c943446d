// Command zbench regenerates every table and figure of the paper's
// evaluation (§5) plus the §4.5 reverse-engineering validation, printing
// paper-reported values next to the values measured on this
// reproduction's simulated substrate.
//
// Usage:
//
//	zbench [-exp all|table1|table2|table3|table4|fig7|fig8|tradeoff|vti|bout|chaos|batch|wire|history|fleet|case1|case2|case3] [-cores N]
//
// -cores scales the manycore SoC (default 5400, the paper's
// configuration; the compile experiments take a few minutes of real time
// at that scale).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"zoomie/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	cores := flag.Int("cores", 5400, "manycore SoC size for compile experiments")
	simEngine := flag.String("simengine", "compiled", "simulation engine: compiled|interp")
	flag.Parse()

	switch *simEngine {
	case "compiled":
		sim.DefaultOptions.Engine = sim.EngineCompiled
	case "interp":
		sim.DefaultOptions.Engine = sim.EngineInterp
	default:
		fmt.Fprintf(os.Stderr, "unknown -simengine %q; have compiled, interp\n", *simEngine)
		os.Exit(2)
	}

	experiments := map[string]func(int) error{
		"table1":     table1,
		"table2":     table2,
		"table3":     table3,
		"table4":     table4,
		"fig3":       fig3,
		"fig7":       fig7,
		"fig8":       fig8,
		"tradeoff":   tradeoff,
		"vti":        vtiExp,
		"bout":       bout,
		"overhead":   overhead,
		"case1":      case1,
		"case2":      case2,
		"case3":      case3,
		"chaos":      chaos,
		"batch":      batchExp,
		"wire":       wireExp,
		"history":    historyExp,
		"fleet":      fleetExp,
		"synthcheck": synthcheckExp,
	}
	order := []string{"table1", "table2", "fig3", "fig7", "tradeoff", "vti", "table3", "fig8", "table4", "bout", "overhead", "chaos", "batch", "wire", "history", "fleet", "synthcheck", "case1", "case2", "case3"}

	if *exp == "all" {
		for _, name := range order {
			if err := experiments[name](*cores); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; have %v\n", *exp, order)
		os.Exit(2)
	}
	if err := fn(*cores); err != nil {
		log.Fatal(err)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println("======================================================================")
	fmt.Println(title)
	fmt.Println("======================================================================")
}
