// Reuse-buffer design sweep: Section 7 of the paper measures how much
// repetition an 8K-entry 4-way reuse buffer captures (Table 10) and
// argues there is "room for improvement". This example quantifies
// that: it sweeps buffer sizes and associativities over one workload
// and prints the capture rate against the repetition ceiling from the
// census.
//
// Usage: go run ./examples/reusebuffer [workload]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	name := "goban"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}

	base := repro.Config{
		SkipInstructions:    500_000,
		MeasureInstructions: 2_000_000,
	}

	// The census ceiling (2000-instance buffers): the census runs in
	// every pipeline, so this run switches every other observer off.
	censusOnly := base
	censusOnly.DisableTaint = true
	censusOnly.DisableLocal = true
	censusOnly.DisableFunc = true
	censusOnly.DisableReuse = true
	censusOnly.DisableVPred = true
	censusOnly.DisableVProf = true
	ceiling, err := repro.RunWorkload(context.Background(), name, censusOnly)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: repetition ceiling %.1f%% of dynamic instructions\n\n",
		name, ceiling.DynRepeatedPct)

	fmt.Printf("%-10s %-6s %-14s %-16s\n", "entries", "ways", "% of all inst", "% of repetition")
	for _, entries := range []int{512, 2048, 8192, 32768} {
		for _, assoc := range []int{1, 4} {
			cfg := base
			cfg.ReuseEntries = entries
			cfg.ReuseAssoc = assoc
			cfg.DisableTaint = true
			cfg.DisableLocal = true
			cfg.DisableFunc = true
			cfg.DisableVPred = true
			cfg.DisableVProf = true
			r, err := repro.RunWorkload(context.Background(), name, cfg)
			if err != nil {
				log.Fatal(err)
			}
			marker := ""
			if entries == 8192 && assoc == 4 {
				marker = "   <- paper's Table 10 configuration"
			}
			fmt.Printf("%-10d %-6d %-14.1f %-16.1f%s\n",
				entries, assoc, r.ReusePctAll, r.ReusePctRepeated, marker)
		}
	}

	fmt.Println("\nthe gap between the last column and 100% is the paper's \"room")
	fmt.Println("for improvement\": repetition the census sees but a realizable")
	fmt.Println("buffer cannot hold.")
}
