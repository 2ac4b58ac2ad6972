// Command gicnetlint runs the repo-native static analyzers over the whole
// module: determinism (no wall clock, no global math/rand, no map-order
// leaks in the simulation packages), crossdet (the same checks on every
// function those packages reach elsewhere in the module), concheck (lock
// discipline, WaitGroup balance, goroutine-leak shapes, arena
// acquire/release pairing), purecheck (//gicnet:pure fingerprint-path
// functions stay side-effect-free and closed under calls), hotpath
// (//gicnet:hotpath functions stay allocation-free and closed under
// calls), floatcmp (no ==/!= on floats outside tests), and errcheck
// (must-check error results).
//
// Exit status is 1 when any finding survives //gicnet:allow suppressions.
//
//	gicnetlint [-root dir] [-analyzers a,b] [-json] [-tags purego]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gicnet/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module root (directory containing go.mod)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	only := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	tags := flag.String("tags", "", "comma-separated extra build tags (like `go build -tags`)")
	flag.Parse()

	opts := lint.LoadOptions{}
	if *tags != "" {
		for _, t := range strings.Split(*tags, ",") {
			if t = strings.TrimSpace(t); t != "" {
				opts.Tags = append(opts.Tags, t)
			}
		}
	}

	prog, err := lint.LoadModuleOpts(*root, opts)
	if err != nil {
		fatal(err)
	}

	analyzers := lint.Analyzers(lint.DefaultConfig())
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name()] {
				sel = append(sel, a)
				delete(keep, a.Name())
			}
		}
		if len(keep) > 0 {
			fmt.Fprintf(os.Stderr, "gicnetlint: unknown analyzers in -analyzers: %s\n", *only)
			os.Exit(2)
		}
		analyzers = sel
	}

	diags := lint.Run(prog, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "gicnetlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gicnetlint:", err)
	os.Exit(2)
}
