// Command aft-introspect scans Go source files for hidden assumptions —
// the §4 introspection idea applied to this library's own host language.
// It flags narrowing integer conversions (the Ariane 501 shape), magic
// dimensioning thresholds, assumption-bearing comments, unchecked type
// assertions, and environment lookups, and suggests the explicit
// assumption variable each one is hiding.
//
// Usage:
//
//	aft-introspect [paths ...]      # files or directories; default: .
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aft/internal/cli"
	"aft/internal/introspect"
)

func main() {
	// No timestamp: the same arguments give the same stderr.
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("aft-introspect", flag.ContinueOnError)
	if done, err := cli.Parse(fset, args, stdout); done {
		return err
	}
	paths := fset.Args()
	if len(paths) == 0 {
		paths = []string{"."}
	}

	files := make(map[string]string)
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			files[p] = string(data)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[path] = string(data)
			return nil
		})
		if err != nil {
			return err
		}
	}

	findings, err := introspect.ScanFiles(files)
	if err != nil {
		return err
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	sum := introspect.Summary(findings)
	cats := make([]introspect.Category, 0, len(sum))
	for c := range sum {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	fmt.Fprintf(stdout, "\n%d finding(s) in %d file(s)\n", len(findings), len(files))
	for _, c := range cats {
		fmt.Fprintf(stdout, "  %-22s %d\n", c.String(), sum[c])
	}
	return nil
}
