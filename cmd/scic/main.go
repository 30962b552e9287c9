// Command scic compiles a sci source file to the textual IPAS IR.
//
// Usage:
//
//	scic [-o out.ir] [-stats] prog.sci
package main

import (
	"flag"
	"fmt"
	"os"

	"ipas/internal/ir"
	"ipas/internal/lang"
)

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	stats := flag.Bool("stats", false, "print module statistics to stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: scic [-o out.ir] [-stats] prog.sci")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	m, err := lang.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	text := ir.Print(m)
	if *stats {
		funcs := 0
		for _, f := range m.Funcs() {
			if !f.Builtin {
				funcs++
			}
		}
		fmt.Fprintf(os.Stderr, "%s: %d functions, %d static instructions, %d sites\n",
			flag.Arg(0), funcs, m.NumInstrs(), m.NumSites())
	}
	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scic:", err)
	os.Exit(1)
}
