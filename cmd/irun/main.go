// Command irun executes a program (sci source or textual IR) on the
// deterministic interpreter with the simulated MPI runtime.
//
// Exit status: 0 for a clean run, 1 for any trap, 3 for a structural
// MPI deadlock (the per-rank attribution report is printed), 2 for a
// usage error.
//
// Usage:
//
//	irun [-ranks N] [-heap MB] [-budget N] [-sites] prog.{sci,ir}
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/lang"
)

func main() {
	ranks := flag.Int("ranks", 1, "number of simulated MPI ranks")
	heapMB := flag.Int64("heap", 64, "per-rank heap size in MiB")
	budget := flag.Int64("budget", 0, "per-rank dynamic instruction budget (0 = unlimited)")
	sites := flag.Bool("sites", false, "print the 10 hottest static instruction sites")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: irun [-ranks N] [-heap MB] [-budget N] [-sites] prog.{sci,ir}")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var m *ir.Module
	if strings.HasSuffix(path, ".ir") {
		m, err = ir.Parse(string(src))
		if err == nil {
			err = ir.Verify(m)
		}
		if err == nil {
			m.AssignSiteIDs()
		}
	} else {
		m, err = lang.Compile(string(src))
	}
	if err != nil {
		fatal(err)
	}
	prog, err := interp.Compile(m, nil)
	if err != nil {
		fatal(err)
	}
	cfg := interp.Config{
		Ranks:      *ranks,
		HeapBytes:  *heapMB << 20,
		MaxInstrs:  *budget,
		CountSites: *sites,
	}
	res := interp.Run(prog, cfg)

	if res.Trap != interp.TrapNone {
		fmt.Printf("trap: %v on rank %d (%s)\n", res.Trap, res.TrapRank, res.TrapMsg)
	}
	if res.Deadlock != nil {
		fmt.Print(res.Deadlock.String())
	}
	fmt.Printf("dynamic instructions: total=%d makespan=%d per-rank=%v\n",
		res.TotalDyn, res.MaxRankDyn, res.DynInstrs)
	if len(res.OutputF) > 0 {
		fmt.Printf("float outputs (%d):", len(res.OutputF))
		for i, v := range res.OutputF {
			if i == 16 {
				fmt.Printf(" ... (%d more)", len(res.OutputF)-16)
				break
			}
			fmt.Printf(" %g", v)
		}
		fmt.Println()
	}
	if len(res.OutputI) > 0 {
		fmt.Printf("int outputs (%d):", len(res.OutputI))
		for i, v := range res.OutputI {
			if i == 16 {
				fmt.Printf(" ... (%d more)", len(res.OutputI)-16)
				break
			}
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}
	if *sites {
		printHotSites(m, res)
	}
	if res.Trap == interp.TrapDeadlock {
		os.Exit(3)
	}
	if res.Trap != interp.TrapNone {
		os.Exit(1)
	}
}

// printHotSites lists the most-executed static instructions.
func printHotSites(m *ir.Module, res *interp.Result) {
	table := m.InstrBySite()
	type hot struct {
		site  int
		count int64
	}
	var hs []hot
	for s, c := range res.SiteCounts {
		if c > 0 {
			hs = append(hs, hot{s, c})
		}
	}
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			if hs[j].count > hs[i].count {
				hs[i], hs[j] = hs[j], hs[i]
			}
		}
	}
	if len(hs) > 10 {
		hs = hs[:10]
	}
	fmt.Println("hottest sites:")
	for _, h := range hs {
		in := table[h.site]
		loc := "?"
		if in != nil {
			loc = fmt.Sprintf("@%s: %s", in.Block().Func().Name(), in)
		}
		fmt.Printf("  %12d  %s\n", h.count, loc)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "irun:", err)
	os.Exit(1)
}
