// Command udcsim runs the repository's UDC, nUDC and consensus protocols
// under a configurable network regime, failure pattern and failure detector,
// checks the relevant specification on the recorded runs, and prints a
// summary.  All protocols, oracles, checks and named scenarios are resolved
// through internal/registry.
//
// It has two modes.  The default runs a single simulation and prints its
// trace summary.  With -sweep N it runs N seeds — across -workers parallel
// engines (default GOMAXPROCS) — and prints the aggregated sweep result; the
// aggregates are byte-identical to a serial sweep of the same seeds.
//
// Examples:
//
//	udcsim -protocol strong -oracle strong -n 6 -failures 4 -drop 0.3
//	udcsim -protocol quorum -t 2 -n 7 -failures 2
//	udcsim -protocol consensus-majority -oracle eventually-strong -n 7 -failures 3
//	udcsim -protocol nudc -check nudc -failures 6 -json run.json
//	udcsim -scenario prop3.1-strong-udc -sweep 200 -workers 8
//	udcsim -adversary burst-loss -protocol strong -sweep 100
//	udcsim -scenario adv-targeted-final-fd -quiet
//	udcsim -list-scenarios
//	udcsim -list-adversaries
//
// Recorded runs can be written in the compact binary container (-o run.bin,
// -format bin|json) and decoded again (-decode run.bin); with -remote the
// sweep is served by a udcd daemon — cached and coalesced — instead of
// simulating locally:
//
//	udcsim -protocol strong -o run.bin
//	udcsim -decode run.bin
//	udcsim -remote http://127.0.0.1:8080 -scenario prop3.1-strong-udc -sweep 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "udcsim:", err)
		os.Exit(1)
	}
}

type options struct {
	protocol        string
	oracle          string
	check           string
	scenario        string
	adversary       string
	listScenarios   bool
	listAdversaries bool
	sweep           int
	workers         int
	n               int
	t               int
	seed            int64
	steps           int
	actions         int
	failures        int
	exact           bool
	drop            float64
	reliable        bool
	crashEnd        int
	tick            int
	suspect         int
	jsonPath        string
	outPath         string
	format          string
	decodePath      string
	remote          string
	wire            string
	timeline        int
	quiet           bool
	verbose         bool
	stabilize       int
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("udcsim", flag.ContinueOnError)
	fs.StringVar(&o.protocol, "protocol", "strong",
		"protocol: "+strings.Join(registry.ProtocolNames(), " | "))
	fs.StringVar(&o.oracle, "oracle", "",
		"failure detector: "+strings.Join(registry.OracleNames(), " | ")+" (default chosen per protocol)")
	fs.StringVar(&o.check, "check", "",
		"specification to check: "+strings.Join(registry.CheckNames(), " | ")+" (default chosen per protocol)")
	fs.StringVar(&o.scenario, "scenario", "",
		"run a named scenario from the registry catalog instead of assembling one from flags")
	fs.BoolVar(&o.listScenarios, "list-scenarios", false, "list the catalogued scenarios and exit")
	fs.StringVar(&o.adversary, "adversary", "",
		"fault/network schedule: "+strings.Join(registry.AdversaryNames(), " | ")+" (default uniform; overrides the scenario's schedule when combined with -scenario)")
	fs.BoolVar(&o.listAdversaries, "list-adversaries", false, "list the catalogued adversaries and exit")
	fs.IntVar(&o.sweep, "sweep", 0, "sweep this many seeds (starting at -seed) instead of a single run")
	fs.IntVar(&o.workers, "workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	fs.IntVar(&o.n, "n", 6, "number of processes")
	fs.IntVar(&o.t, "t", 2, "failure bound t used by tuseful/quorum protocols and the trivial detector")
	fs.Int64Var(&o.seed, "seed", 1, "random seed (sweep mode: first seed)")
	fs.IntVar(&o.steps, "steps", 400, "simulation horizon in steps")
	fs.IntVar(&o.actions, "actions", 6, "number of coordination actions to initiate")
	fs.IntVar(&o.failures, "failures", 2, "maximum number of crashes to inject")
	fs.BoolVar(&o.exact, "exact-failures", true, "inject exactly -failures crashes instead of a random number up to it")
	fs.Float64Var(&o.drop, "drop", 0.3, "per-message drop probability on fair-lossy channels")
	fs.BoolVar(&o.reliable, "reliable", false, "use reliable channels instead of fair-lossy ones")
	fs.IntVar(&o.crashEnd, "crash-end", 0, "latest crash time (0 = steps/2)")
	fs.IntVar(&o.tick, "tick", 2, "protocol tick period")
	fs.IntVar(&o.suspect, "suspect-every", 3, "failure-detector query period")
	fs.StringVar(&o.jsonPath, "json", "", "write the recorded run as JSON to this file (shorthand for -o with -format json)")
	fs.StringVar(&o.outPath, "o", "", "write the recorded run to this file in -format")
	fs.StringVar(&o.format, "format", store.FormatAuto, "run file format for -o and -decode: bin | json | auto (bin on encode, sniffed on decode)")
	fs.StringVar(&o.decodePath, "decode", "", "decode a recorded run file and print its summary instead of simulating (with -check, also re-check it; with -o/-json, re-export it, converting formats)")
	fs.StringVar(&o.remote, "remote", "", "udcd base URL: serve the sweep from the daemon instead of simulating locally (requires -scenario and -sweep; the summary line reports the daemon's X-Cache verdict: hit, partial or miss)")
	fs.StringVar(&o.wire, "wire", "bin", "with -remote: response wire format, bin (the store's codec container, decoded locally) or json")
	fs.IntVar(&o.timeline, "timeline", -1, "print the full event timeline of this process id")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the per-run summary")
	fs.BoolVar(&o.verbose, "v", false, "with -remote: also print the daemon's Server-Timing stage breakdown")
	fs.IntVar(&o.stabilize, "stabilize-at", 100, "stabilisation time for the eventually-strong detector")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

// registryOptions maps the command-line knobs onto registry constructor
// options.  An explicit -stabilize-at 0 means "accurate from the start",
// which the registry encodes as a negative value.
func registryOptions(o options) registry.Options {
	stabilize := o.stabilize
	if stabilize == 0 {
		stabilize = -1
	}
	return registry.Options{
		N:           o.n,
		T:           o.t,
		Seed:        o.seed,
		StabilizeAt: stabilize,
	}
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.decodePath != "" {
		return runDecode(o)
	}
	if o.remote != "" {
		return runRemote(o)
	}
	if o.listScenarios {
		for _, sc := range registry.Scenarios() {
			fmt.Printf("%-32s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	if o.listAdversaries {
		for _, info := range registry.Adversaries() {
			kind := "crashes"
			if info.Shapes {
				kind = "crashes+channels"
			}
			fmt.Printf("%-18s %-16s %s\n", info.Name, kind, info.Description)
		}
		return nil
	}

	var (
		spec       workload.Spec
		eval       workload.Evaluator
		checkName  string
		oracleName string
	)
	if o.scenario != "" {
		sc, err := registry.LookupScenario(o.scenario)
		if err != nil {
			return err
		}
		spec, eval, checkName = sc.Spec, sc.Eval, sc.Check
		oracleName = "scenario-defined"
	} else {
		ropts := registryOptions(o)
		factory, info, err := registry.Protocol(o.protocol, ropts)
		if err != nil {
			return err
		}
		oracleName = o.oracle
		if oracleName == "" {
			oracleName = info.DefaultOracle
		}
		oracle, err := registry.Oracle(oracleName, ropts)
		if err != nil {
			return err
		}
		checkName = o.check
		if checkName == "" {
			checkName = info.DefaultCheck
		}
		eval, err = registry.Evaluator(checkName, ropts)
		if err != nil {
			return err
		}

		net := sim.FairLossyNetwork(o.drop)
		if o.reliable {
			net = sim.ReliableNetwork()
		}
		spec = workload.Spec{
			Name:          "udcsim/" + o.protocol,
			N:             o.n,
			MaxSteps:      o.steps,
			TickEvery:     o.tick,
			SuspectEvery:  o.suspect,
			Network:       net,
			Oracle:        oracle,
			Protocol:      factory,
			Actions:       o.actions,
			MaxFailures:   o.failures,
			ExactFailures: o.exact,
			CrashEnd:      o.crashEnd,
		}
	}

	if o.adversary != "" {
		adv, _, err := registry.Adversary(o.adversary)
		if err != nil {
			return err
		}
		spec.Adversary = adv
	}

	if o.sweep > 0 {
		return runSweep(o, spec, eval, checkName)
	}
	return runSingle(o, spec, eval, checkName, oracleName)
}

// runDecode loads a recorded run file (binary container or trace JSON) and
// prints the same trace-level summary a fresh simulation would, optionally
// re-checking a specification on it and re-exporting it with -o/-json.
func runDecode(o options) error {
	run, err := store.ReadRunFile(o.decodePath, o.format)
	if err != nil {
		return err
	}
	if o.jsonPath != "" {
		if err := store.WriteRunFile(o.jsonPath, store.FormatJSON, run); err != nil {
			return err
		}
		fmt.Printf("run written to %s\n", o.jsonPath)
	}
	if o.outPath != "" {
		if o.outPath == o.decodePath {
			return fmt.Errorf("-o %s would overwrite the file being decoded", o.outPath)
		}
		if err := store.WriteRunFile(o.outPath, o.format, run); err != nil {
			return err
		}
		fmt.Printf("run written to %s (format %s)\n", o.outPath, o.format)
	}
	if !o.quiet {
		fmt.Printf("decoded %s: ", o.decodePath)
		fmt.Print(trace.Summary(run))
	}
	if o.timeline >= 0 && o.timeline < run.N {
		fmt.Printf("timeline of process %d:\n%s", o.timeline, trace.Timeline(run, model.ProcID(o.timeline)))
	}
	if o.check == "" {
		return nil
	}
	eval, err := registry.Evaluator(o.check, registry.Options{N: run.N})
	if err != nil {
		return err
	}
	if violations := eval(run); len(violations) > 0 {
		fmt.Printf("%s check FAILED with %d violations:\n", strings.ToUpper(o.check), len(violations))
		for _, v := range violations {
			fmt.Println("  -", v)
		}
		return fmt.Errorf("%s violated", o.check)
	}
	fmt.Printf("%s check passed (%d actions, faulty=%s)\n", strings.ToUpper(o.check), len(run.InitiatedActions()), run.Faulty())
	return nil
}

// runRemote serves the sweep from a udcd daemon.  The daemon only knows the
// catalogued scenarios, so -scenario is required; its response is
// byte-identical to a local sweep of the same seeds.
func runRemote(o options) error {
	if o.scenario == "" {
		return fmt.Errorf("-remote requires -scenario (the daemon serves the catalogued scenarios; see -list-scenarios)")
	}
	if o.sweep <= 0 {
		return fmt.Errorf("-remote requires -sweep (the daemon serves sweeps, not single traces)")
	}
	if o.outPath != "" || o.jsonPath != "" {
		return fmt.Errorf("-o/-json need a recorded run, which only local execution materialises; drop -remote or the output flag")
	}
	if o.workers != 0 {
		return fmt.Errorf("-workers sizes the local pool; the daemon's fleet is configured on its side (drop -remote or -workers)")
	}
	switch o.wire {
	case "bin", "json":
	default:
		return fmt.Errorf("-wire must be bin or json, not %q", o.wire)
	}
	client := &server.Client{BaseURL: o.remote, Wire: o.wire}
	resp, cache, err := client.Sweep(server.SweepRequest{
		Scenario:  o.scenario,
		Adversary: o.adversary,
		Seeds:     o.sweep,
		SeedBase:  o.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-34s ok=%d/%d msgs=%8.0f latency=%6.1f violations=%d [remote cache %s]\n",
		resp.Scenario, resp.Successes, resp.Seeds, resp.MeanMessages, resp.MeanLatency, resp.TotalViolations, cache)
	if o.verbose {
		fmt.Printf("  wire: format=%s bytes=%d\n", client.WireFormat, client.WireBytes)
		if client.ServerTiming != "" {
			fmt.Printf("  server-timing: %s\n", client.ServerTiming)
		}
		if client.TraceID != "" {
			fmt.Printf("  trace: %s (GET %s/debug/traces/%s)\n", client.TraceID, strings.TrimRight(o.remote, "/"), client.TraceID)
		}
	}
	if !o.quiet {
		for _, out := range resp.Outcomes {
			if !out.OK {
				fmt.Printf("  seed %d: %d violations (first: %s: %s)\n",
					out.Seed, len(out.Violations), out.Violations[0].Rule, out.Violations[0].Detail)
			}
		}
	}
	if resp.TotalViolations > 0 {
		return fmt.Errorf("%s violated on %d of %d seeds", resp.Check, resp.Seeds-resp.Successes, resp.Seeds)
	}
	fmt.Printf("%s check passed on all %d seeds\n", strings.ToUpper(resp.Check), resp.Seeds)
	return nil
}

// runSweep sweeps the spec over o.sweep seeds with a parallel worker pool.
func runSweep(o options, spec workload.Spec, eval workload.Evaluator, checkName string) error {
	seeds := workload.Seeds(o.seed, o.sweep)
	runner := workload.Runner{Workers: o.workers}
	result, err := runner.Sweep(spec, seeds, eval)
	if err != nil {
		return err
	}
	fmt.Println(result.String())
	if !o.quiet {
		for _, out := range result.Outcomes {
			if !out.OK() {
				fmt.Printf("  seed %d: %d violations (first: %v)\n", out.Seed, len(out.Violations), out.Violations[0])
			}
		}
	}
	if result.TotalViolations() > 0 {
		return fmt.Errorf("%s violated on %d of %d seeds",
			checkName, len(result.Outcomes)-result.Successes(), len(result.Outcomes))
	}
	fmt.Printf("%s check passed on all %d seeds\n", strings.ToUpper(checkName), len(result.Outcomes))
	return nil
}

// runSingle runs one seed and prints the trace-level summary.
func runSingle(o options, spec workload.Spec, eval workload.Evaluator, checkName, oracleName string) error {
	res, err := workload.Execute(spec, o.seed)
	if err != nil {
		return err
	}
	violations := eval(res.Run)

	if !o.quiet {
		adversaryName := "uniform"
		if spec.Adversary != nil {
			adversaryName = spec.Adversary.Name()
		}
		fmt.Printf("scenario=%s oracle=%s check=%s adversary=%s seed=%d\n", spec.Name, oracleName, checkName, adversaryName, o.seed)
		fmt.Print(trace.Summary(res.Run))
		fmt.Printf("stats: sent=%d delivered=%d dropped=%d duplicated=%d suspect-reports=%d\n",
			res.Stats.MessagesSent, res.Stats.MessagesDelivered, res.Stats.MessagesDropped,
			res.Stats.MessagesDuplicated, res.Stats.SuspectEvents)
	}
	if o.timeline >= 0 && o.timeline < spec.N {
		fmt.Printf("timeline of process %d:\n%s", o.timeline, trace.Timeline(res.Run, model.ProcID(o.timeline)))
	}
	if o.jsonPath != "" {
		if err := store.WriteRunFile(o.jsonPath, store.FormatJSON, res.Run); err != nil {
			return err
		}
		fmt.Printf("run written to %s\n", o.jsonPath)
	}
	if o.outPath != "" {
		if err := store.WriteRunFile(o.outPath, o.format, res.Run); err != nil {
			return err
		}
		fmt.Printf("run written to %s (format %s)\n", o.outPath, o.format)
	}

	if len(violations) > 0 {
		fmt.Printf("%s check FAILED with %d violations:\n", strings.ToUpper(checkName), len(violations))
		for _, v := range violations {
			fmt.Println("  -", v)
		}
		return fmt.Errorf("%s violated", checkName)
	}
	fmt.Printf("%s check passed (%d actions, faulty=%s)\n", strings.ToUpper(checkName), len(res.Run.InitiatedActions()), res.Run.Faulty())
	return nil
}
