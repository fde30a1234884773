// Command aft-probe runs the paper's §3.1 selection pipeline against a
// machine description: it parses `lshw`-style output (or uses the
// built-in Fig. 2 sample), consults the failure knowledge base, and
// prints the selected memory access method per bank with the full audit
// trail.
//
// Usage:
//
//	aft-probe [-lshw FILE] [-kb FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"aft/internal/autoconf"
	"aft/internal/cli"
	"aft/internal/spd"
)

const builtinLSHW = `  *-memory
       description: System Memory
       size: 1536MiB
     *-bank:0
          description: DIMM DDR Synchronous 533 MHz (1.9 ns)
          vendor: CE00000000000000
          serial: F504F679
          slot: DIMM_A
          size: 1GiB
          clock: 533MHz (1.9ns)
     *-bank:1
          description: DIMM DDR Synchronous 667 MHz (1.5 ns)
          vendor: CE00000000000000
          serial: F33DD2FD
          slot: DIMM_B
          size: 512MiB
          clock: 667MHz (1.5ns)
`

func main() {
	// No timestamp: the same arguments give the same stderr.
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-probe", flag.ContinueOnError)
	lshwPath := fs.String("lshw", "", "path to lshw output (default: built-in Fig. 2 sample)")
	kbPath := fs.String("kb", "", "path to a JSON failure knowledge base (default: built-in)")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}

	text := builtinLSHW
	if *lshwPath != "" {
		data, err := os.ReadFile(*lshwPath)
		if err != nil {
			return err
		}
		text = string(data)
	}

	kb := spd.DefaultKnowledgeBase()
	if *kbPath != "" {
		data, err := os.ReadFile(*kbPath)
		if err != nil {
			return err
		}
		kb, err = spd.LoadKnowledgeBase(data)
		if err != nil {
			return err
		}
	}

	mods, err := spd.ParseLSHW(text)
	if err != nil {
		return err
	}
	sel := autoconf.NewSelector(kb, nil)
	for i, m := range mods {
		fmt.Fprintf(stdout, "=== bank %d\n", i)
		decision, err := sel.Select(m)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, decision)
		fmt.Fprintln(stdout)
	}
	return nil
}
