// teechain-bench regenerates every table and figure of the paper's
// evaluation (§7) from this implementation, printing paper-style
// output. DESIGN.md §4 indexes the runners; the repository keeps no
// recorded paper-vs-measured comparison, so read the printed rows
// against the paper directly.
//
// Usage:
//
//	teechain-bench            # run everything (several minutes)
//	teechain-bench -run table1,fig4
//	teechain-bench -quick     # reduced measurement lengths
//
// Overload benchmarking (admission control under overdrive over real
// TCP, see overload.go):
//
//	teechain-bench -overdrive 10
//	teechain-bench -overdrive 10 -overloadjson F -overloadcompare BENCH_overload.json
//
// The payment path itself — lanes, committees, the WAL, routed
// payments — is measured by the benchmark program in bench/
// (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"teechain/internal/harness"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiments: table1,table2,table3,table4,fig4,fig6,fig7")
	quick := flag.Bool("quick", false, "reduced measurement lengths")
	overdrive := flag.Int("overdrive", 0, "run the overload benchmark at this offered-load multiple (e.g. 10) instead of the paper experiments")
	socketPay := flag.Int("spay", 20000, "with -overdrive: a tenth of the payments per run")
	batch := flag.Int("batch", 64, "with -overdrive: payments per PayBatch frame")
	sreps := flag.Int("sreps", 2, "with -overdrive: repetitions (best kept per gate criterion)")
	overloadJSON := flag.String("overloadjson", "", "with -overdrive: write the overload snapshot as JSON to this file")
	overloadCompare := flag.String("overloadcompare", "", "with -overdrive: compare against this baseline JSON and exit nonzero on a flat-p99 violation or >25% admitted tx/s regression")
	flag.Parse()

	if *overdrive > 0 {
		if *quick {
			*socketPay = 4000
		}
		// Tail percentiles need far more steady state than a throughput
		// mean: 10x -spay keeps the p99-ratio gate out of warmup/GC noise
		// while still finishing in seconds.
		snap, err := runOverloadSuite(*socketPay*10, *batch, *overdrive, *sreps)
		if err != nil {
			log.Fatal(err)
		}
		if *overloadJSON != "" {
			if err := writeOverloadJSON(*overloadJSON, snap); err != nil {
				log.Fatal(err)
			}
		}
		if *overloadCompare != "" {
			if err := compareOverloadBaseline(*overloadCompare, snap); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	if *overloadJSON != "" || *overloadCompare != "" {
		log.Fatal("-overloadjson/-overloadcompare require -overdrive")
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	start := time.Now()
	if selected("table1") {
		section("Table 1")
		rows, err := harness.RunTable1()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(harness.FormatTable1(rows))
	}
	if selected("table2") {
		section("Table 2")
		rows, err := harness.RunTable2()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(harness.FormatTable2(rows))
	}
	if selected("fig4") {
		section("Figure 4")
		maxHops := 11
		if *quick {
			maxHops = 6
		}
		points, err := harness.RunFigure4(maxHops)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(harness.FormatFigure4(points))
	}
	if selected("fig6") {
		section("Figure 6")
		machines := []int{5, 10, 15, 20, 25, 30}
		perMachine := 3000
		if *quick {
			machines = []int{5, 10, 15}
			perMachine = 1500
		}
		points, err := harness.RunFigure6(machines, []int{1, 2, 3}, perMachine)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(harness.FormatFigure6(points))
	}
	if selected("table3") {
		section("Table 3")
		per := 30
		if *quick {
			per = 15
		}
		rows, err := harness.RunTable3(per)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(harness.FormatTable3(rows))
	}
	if selected("fig7") {
		section("Figure 7")
		per := 30
		gs := []int{0, 1, 2, 4}
		if *quick {
			per = 15
			gs = []int{0, 2}
		}
		points, err := harness.RunFigure7(gs, per)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(harness.FormatFigure7(points))
	}
	if selected("table4") {
		section("Table 4")
		fmt.Print(harness.FormatTable4())
	}
	fmt.Printf("\ncompleted in %v (wall clock)\n", time.Since(start).Round(time.Millisecond))
}

func section(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}
