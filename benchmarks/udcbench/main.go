// Command udcbench is the repository's one benchmark: six named,
// seed-generated workloads run against the real code — offline through
// workload.Runner, serving through in-process server.New daemons behind real
// loopback TCP listeners — with every delivered byte checked against a serial
// reference.  An untraced run reports the end-to-end metrics, a traced run
// (-trace 1) the per-layer ladder.  See ../README.md.
//
//	udcbench -workload serve-warm -seed 1 -seconds 8 -trace 0
//	udcbench -workload all -runs 3 -out a.json
//	udcbench -compare a.json b.json
//	udcbench -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// benchmarkFile is the run-set file -out writes and -compare reads.
type benchmarkFile struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Sizes      sizes  `json:"sizes"`
	// Runs holds every run made, in order; nothing is dropped.
	Runs []runRecord `json:"runs"`
}

// runRecord is one run of one workload.
type runRecord struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	Digest    string             `json:"digest"`
	Breaches  []string           `json:"breaches,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func recordOf(rep *runReport, traced bool) runRecord {
	return runRecord{
		Workload: rep.spec.name, Traced: traced, Correct: rep.correct(),
		Attempted: rep.attempted, Failed: rep.failed, Rounds: len(rep.rounds),
		Digest: fmt.Sprintf("%016x", rep.digest), Breaches: rep.breaches, Metrics: rep.values,
	}
}

// clientCount is C: the client goroutines of a closed loop, and GOMAXPROCS.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// commit is the VCS revision the binary was built from, when the build could
// see one.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func main() {
	code := run()
	removeAllTempDirs()
	os.Exit(code)
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 8, "timed work per run: whole rounds of the frozen op list repeat until this much has passed")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans flushed to <out-dir>/trace-<workload>.jsonl")
		runs     = flag.Int("runs", 3, "with -workload all: untraced runs per workload (one traced run is added)")
		out      = flag.String("out", "", "with -workload all: write every run to this JSON file, for -compare")
		outDir   = flag.String("out-dir", "", "directory for temp-dir stores and trace files (default: the executable's directory)")
		smoke    = flag.Bool("smoke", false, "run all six workloads at about 1/50 size, every correctness gate on")
		compare  = flag.Bool("compare", false, "compare two -out files: udcbench -compare a.json b.json")
		record   = flag.String("record", "", "also write this run as a JSON run record (what -workload all collects)")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "udcbench:", err)
		return 1
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *outDir == "" {
		exe, err := os.Executable()
		if err != nil {
			return fail(err)
		}
		*outDir = filepath.Dir(exe)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	c := clientCount()
	runtime.GOMAXPROCS(c)

	cfg := runConfig{
		seed: *seed, seconds: float64(*seconds), traced: *trace != 0,
		sz: fullSizes, c: c, outDir: *outDir, ladder: true,
	}
	switch {
	case *smoke:
		return runSmoke(cfg, os.Stdout)
	case *workload == "all":
		return runAll(*seed, *seconds, *runs, *out)
	case *workload == "":
		flag.Usage()
		return 2
	}
	cfg.workload = *workload
	rep, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	if *record != "" {
		data, err := json.Marshal(recordOf(rep, cfg.traced))
		if err == nil {
			err = os.WriteFile(*record, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	return emit(os.Stdout, rep, cfg.traced)
}

// emit prints the report and, last, the contract's result line.
func emit(w io.Writer, rep *runReport, traced bool) int {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	rep.print(w, specs)
	metrics, err := metricsObject(specs, rep.values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udcbench:", err)
		return 1
	}
	line, err := json.Marshal(resultLine{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "udcbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

// smokeConfig shrinks cfg to -smoke: one set-up, one traced round, smoke
// sizes.
func smokeConfig(cfg runConfig) runConfig {
	cfg.sz, cfg.smoke, cfg.seconds, cfg.traced = smokeSizes, true, 0, true
	return cfg
}

// runSmoke runs one traced round of every workload, and the ladder, at smoke
// size.
func runSmoke(cfg runConfig, w io.Writer) int {
	cfg = smokeConfig(cfg)
	code := 0
	for _, spec := range workloads {
		cfg.workload = spec.name
		rep, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "udcbench: %s: %v\n", spec.name, err)
			code = 1
			continue
		}
		rep.print(w, perLayer)
		if !rep.correct() {
			code = 1
		}
	}
	return code
}

// runAll runs every workload in a fresh process each — runs untraced runs
// and one traced — prints every report, and with out writes the run set.
func runAll(seed int64, seconds, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "udcbench:", err)
		return 1
	}
	file := benchmarkFile{
		NProc: runtime.NumCPU(), GOMAXPROCS: clientCount(), GoVersion: runtime.Version(),
		Commit: commit(), Seed: seed, Seconds: seconds, Sizes: fullSizes,
	}
	code := 0
	for _, spec := range workloads {
		for i := 0; i <= runs; i++ {
			traced := i == runs
			recFile := filepath.Join(filepath.Dir(exe), fmt.Sprintf("run-%d.json", os.Getpid()))
			cmd := exec.Command(exe, "-workload", spec.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", map[bool]string{false: "0", true: "1"}[traced],
				"-record", recFile)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "udcbench: %s: %v\n", spec.name, err)
				code = 1
			}
			data, err := os.ReadFile(recFile)
			os.Remove(recFile)
			var rec runRecord
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "udcbench: %s: no run record: %v\n", spec.name, err)
				code = 1
				continue
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "udcbench:", err)
			return 1
		}
	}
	return code
}
