// Command compose-lint runs the machine-code conformance verifier
// (internal/check) over a benchmark × feature-set matrix, printing every
// finding with its rule ID, PC, and disassembly context. It is the
// standalone face of the verification layer the compiler and the evaluation
// pipeline embed: CI runs it across all 26 feature sets to prove the
// compiler emits only legal code, and -mutate turns it into a
// detection-power report for the seeded mutation harness.
//
// Usage:
//
//	compose-lint                         # all 26 feature sets x all 49 regions
//	compose-lint -bench hmmer            # one benchmark
//	compose-lint -region sjeng.0 -fs ux86-8D-32W-P
//	compose-lint -rules depth,udef       # restrict the rule set
//	compose-lint -mutate -seed 7         # mutation-detection matrix
//	compose-lint -json > findings.json
//
// Exit status: 0 when every analyzed program is clean (or, under -mutate,
// every applicable mutation class is detected); 1 otherwise; 2 on usage
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/isa"
	"compisa/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("compose-lint: ")
	bench := flag.String("bench", "", "restrict to one benchmark (e.g. hmmer)")
	region := flag.String("region", "", "restrict to one region (e.g. hmmer.0)")
	fsName := flag.String("fs", "", "restrict to one feature set by short name (e.g. ux86-8D-32W-P)")
	target := flag.String("target", "", "guest-ISA encoding target: x86 | alpha64 (empty = x86); restricted targets drop unsupported feature sets")
	rules := flag.String("rules", "", "comma-separated rule IDs to run (default: all)")
	compact := flag.Bool("compact", false, "lay programs out under the compact superset encoding")
	mutate := flag.Bool("mutate", false, "run the seeded mutation harness and report detection power")
	seed := flag.Uint64("seed", 1, "mutation seed (with -mutate)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	quiet := flag.Bool("quiet", false, "print only the summary line")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	regions, err := selectRegions(*bench, *region)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	sets, err := selectFeatureSets(*fsName)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	tgt, err := isa.ResolveTarget(*target)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	if !tgt.Default() {
		// Restricted targets encode a subset of the composite matrix; lint
		// the sets they support rather than failing on the rest. An
		// explicitly requested -fs outside the envelope still errors below.
		var kept []isa.FeatureSet
		for _, fs := range sets {
			if serr := tgt.SupportsFS(fs); serr != nil {
				if *fsName != "" {
					log.Printf("feature set %s: %v", fs.ShortName(), serr)
					os.Exit(2)
				}
				continue
			}
			kept = append(kept, fs)
		}
		sets = kept
		if len(sets) == 0 {
			log.Printf("target %s supports none of the selected feature sets", tgt.Name)
			os.Exit(2)
		}
	}
	var ruleIDs []string
	if *rules != "" {
		known := map[string]bool{}
		for _, id := range check.RuleIDs() {
			known[id] = true
		}
		for _, id := range strings.Split(*rules, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				log.Printf("unknown rule %q (known: %s)", id, strings.Join(check.RuleIDs(), ", "))
				os.Exit(2)
			}
			ruleIDs = append(ruleIDs, id)
		}
	}

	if *mutate {
		os.Exit(runMutate(regions, sets, *target, *seed, *compact, *jsonOut, *quiet))
	}
	os.Exit(runLint(regions, sets, ruleIDs, *target, *compact, *jsonOut, *quiet))
}

func selectRegions(bench, region string) ([]workload.Region, error) {
	if region != "" {
		r, ok := workload.RegionByName(region)
		if !ok {
			return nil, fmt.Errorf("unknown region %q", region)
		}
		return []workload.Region{r}, nil
	}
	if bench != "" {
		b, err := workload.ByName(bench)
		if err != nil {
			return nil, fmt.Errorf("%w (known: %s)", err, strings.Join(workload.Names(), ", "))
		}
		return b.Regions, nil
	}
	return workload.Regions(), nil
}

func selectFeatureSets(name string) ([]isa.FeatureSet, error) {
	all := isa.Derive()
	if name == "" {
		return all, nil
	}
	var names []string
	for _, fs := range all {
		if fs.ShortName() == name {
			return []isa.FeatureSet{fs}, nil
		}
		names = append(names, fs.ShortName())
	}
	return nil, fmt.Errorf("unknown feature set %q (known: %s)", name, strings.Join(names, ", "))
}

func compile(r workload.Region, fs isa.FeatureSet, target string, compact bool) (*code.Program, error) {
	f, _, err := r.Build(fs.Width)
	if err != nil {
		return nil, fmt.Errorf("%s for %s: build: %w", r.Name, fs.ShortName(), err)
	}
	// The lint IS the verification; run the compiler without its own gate.
	prog, err := compiler.Compile(f, fs, compiler.Options{
		Target: target, CompactEncoding: compact, Verify: compiler.VerifyOff,
	})
	if err != nil {
		return nil, fmt.Errorf("%s for %s: compile: %w", r.Name, fs.ShortName(), err)
	}
	prog.Name = r.Name
	return prog, nil
}

func runLint(regions []workload.Region, sets []isa.FeatureSet, ruleIDs []string, target string, compact, jsonOut, quiet bool) int {
	var reports []*check.Report
	programs, findings := 0, 0
	for _, fs := range sets {
		for _, r := range regions {
			prog, err := compile(r, fs, target, compact)
			if err != nil {
				log.Println(err)
				return 1
			}
			programs++
			rep := check.AnalyzeOpts(prog, check.Options{Rules: ruleIDs})
			if len(rep.Findings) > 0 {
				findings += len(rep.Findings)
				reports = append(reports, rep)
			}
		}
	}
	if jsonOut {
		out := struct {
			Programs int             `json:"programs"`
			Findings int             `json:"findings"`
			Reports  []*check.Report `json:"reports"`
		}{programs, findings, reports}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Println(err)
			return 1
		}
	} else {
		if !quiet {
			for _, rep := range reports {
				fmt.Print(rep.String())
			}
		}
		fmt.Printf("compose-lint: %d program(s) analyzed (%d feature set(s) x %d region(s)), %d finding(s)\n",
			programs, len(sets), len(regions), findings)
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// mutationRow is one (feature set, region, class) detection outcome.
type mutationRow struct {
	FS      string         `json:"fs"`
	Region  string         `json:"region"`
	Class   string         `json:"class"`
	Applied bool           `json:"applied"`
	Caught  bool           `json:"caught"`
	Desc    string         `json:"desc,omitempty"`
	Rules   map[string]int `json:"rules,omitempty"`
}

func runMutate(regions []workload.Region, sets []isa.FeatureSet, target string, seed uint64, compact, jsonOut, quiet bool) int {
	var rows []mutationRow
	applied, caught := 0, 0
	for _, fs := range sets {
		for _, r := range regions {
			prog, err := compile(r, fs, target, compact)
			if err != nil {
				log.Println(err)
				return 1
			}
			for _, d := range check.MutationSweep(prog, seed) {
				rows = append(rows, mutationRow{
					FS: fs.ShortName(), Region: r.Name, Class: d.Class,
					Applied: d.Applied, Caught: d.Caught, Desc: d.Desc, Rules: d.Rules,
				})
				if d.Applied {
					applied++
					if d.Caught {
						caught++
					}
				}
			}
		}
	}
	if jsonOut {
		out := struct {
			Seed    uint64        `json:"seed"`
			Applied int           `json:"applied"`
			Caught  int           `json:"caught"`
			Rows    []mutationRow `json:"rows"`
		}{seed, applied, caught, rows}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Println(err)
			return 1
		}
	} else {
		if !quiet {
			for _, row := range rows {
				switch {
				case !row.Applied:
					fmt.Printf("  n/a    %-22s %-12s %s\n", row.FS, row.Region, row.Class)
				case row.Caught:
					fmt.Printf("  CAUGHT %-22s %-12s %-10s %s\n", row.FS, row.Region, row.Class, row.Desc)
				default:
					fmt.Printf("  MISSED %-22s %-12s %-10s %s (findings: %v)\n",
						row.FS, row.Region, row.Class, row.Desc, row.Rules)
				}
			}
		}
		fmt.Printf("compose-lint: mutation detection %d/%d (seed %d)\n", caught, applied, seed)
	}
	if caught != applied {
		return 1
	}
	return 0
}
