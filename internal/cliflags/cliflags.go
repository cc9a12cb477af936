// Package cliflags centralizes the campaign flags shared by the flashsim,
// tables and figures binaries. Before it existed each binary declared its
// own subset with drifting spellings (flashsim took -parallel where the
// configs said Workers, figures had no -runs at all); registering through
// one package keeps the three command lines interchangeable:
//
//	-seed N            base random seed
//	-runs N            runs per campaign/batch
//	-workers N         run-level worker goroutines (0 = one per CPU):
//	                   independent campaign runs in parallel; -parallel is
//	                   a compatible alias
//	-metrics           print the aggregate metric registry
//	-metrics-json      emit the metric snapshot as JSON on stdout
//	-trace             print the recovery event timeline (single runs)
//	-trace-json FILE   write Chrome trace-event JSON (single runs)
//	-trace-critical    print the recovery critical path (single runs)
//	                   (flashsim single runs only: tables, figures and
//	                   flashsim campaigns refuse the three trace flags)
//	-routing NAME      interconnect-recovery routing strategy: paper
//	                   (dim-order + full drain + up*/down*, the default),
//	                   adaptive (fault-region-aware, no drain), or
//	                   incremental (patch broken routes, partial drain)
//	-run-log FILE      stream one JSONL record per campaign run, ordered by
//	                   run index; byte-identical at any -parallel
//	-run-log-host      keep the host-side record fields (wall_ns, worker)
//	                   instead of zeroing them — real accounting at the
//	                   price of byte-identity
//	-progress          live rate-limited campaign progress on stderr (runs
//	                   done/total, events/sec, failures, ETA); never
//	                   touches the JSON-only stdout contract
//	-cpuprofile FILE   write a pprof CPU profile
//	-memprofile FILE   write a pprof allocation profile at exit
//
// A flag only one binary honours is registered by that binary alone:
// flashsim's -run-seed and tables' -exemplars. A registered flag the chosen table or figure does not read
// is refused by RejectIgnored, and so is one the chosen flashsim mode does
// not read.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"flashfc"
)

// Defaults parameterizes the per-binary flag defaults.
type Defaults struct {
	// Runs is the default for -runs (flashsim: 1; tables: 0, meaning the
	// per-table default; figures: 12, used by the distribution sweep).
	Runs int
}

// Flags holds the parsed values of the shared campaign flags.
type Flags struct {
	Seed    int64
	Runs    int
	Workers int

	Metrics     bool
	MetricsJSON bool

	Trace         bool
	TraceJSON     string
	TraceCritical bool

	// Routing is the interconnect-recovery routing strategy name ("" is
	// "paper": dim-order + full-drain + up*/down*). Check validates it
	// after parse.
	Routing string

	// RunLog is the -run-log path: one JSONL record per campaign run,
	// ordered by run index (empty = off). RunLogHost keeps the host-side
	// fields (wall_ns, worker) instead of zeroing them.
	RunLog     string
	RunLogHost bool
	// Progress enables the live stderr campaign reporter.
	Progress bool

	CPUProfile string
	MemProfile string

	// fs is the flag set the flags were registered on; traceAlternatives
	// looks up which campaign-scale alternatives the binary has.
	fs *flag.FlagSet
}

// Register installs the shared flags on fs (flag.CommandLine in the
// binaries) and returns the destination struct, to be read after
// fs.Parse.
func Register(fs *flag.FlagSet, def Defaults) *Flags {
	f := &Flags{fs: fs}
	fs.Int64Var(&f.Seed, "seed", 1, "base random seed")
	fs.IntVar(&f.Runs, "runs", def.Runs, "independent runs per campaign")
	fs.IntVar(&f.Workers, "workers", 0, "run-level campaign worker goroutines (0 = one per CPU)")
	fs.IntVar(&f.Workers, "parallel", 0, "alias for -workers")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the aggregate metric registry")
	fs.BoolVar(&f.MetricsJSON, "metrics-json", false, "emit the metric snapshot as stable-key JSON on stdout")
	fs.BoolVar(&f.Trace, "trace", false, "print the recovery event timeline (single runs)")
	fs.StringVar(&f.TraceJSON, "trace-json", "", "write the recovery span tree as Chrome trace-event JSON to `file` (single runs)")
	fs.BoolVar(&f.TraceCritical, "trace-critical", false, "print the recovery critical-path report (single runs)")
	fs.StringVar(&f.Routing, "routing", "", "recovery routing `strategy`: "+strategyList()+" (default paper)")
	fs.StringVar(&f.RunLog, "run-log", "", "stream one JSONL record per campaign run to `file`, ordered by run index (byte-identical at any -parallel)")
	fs.BoolVar(&f.RunLogHost, "run-log-host", false, "keep host-side run-log fields (wall_ns, worker) instead of zeroing them; breaks byte-identity across worker counts")
	fs.BoolVar(&f.Progress, "progress", false, "live campaign progress on stderr (runs done/total, events/sec, failures, ETA)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof allocation profile to `file` at exit")
	return f
}

// Config builds the campaign execution envelope the flags describe.
// Metrics is set whenever either metric output was requested, so campaigns
// aggregate snapshots exactly when something will consume them.
func (f *Flags) Config() flashfc.CampaignConfig {
	return flashfc.CampaignConfig{
		Seed:    f.Seed,
		Runs:    f.Runs,
		Workers: f.Workers,
		Metrics: f.Metrics || f.MetricsJSON,
	}
}

// strategyList joins the registered routing strategy names for flag usage
// text.
func strategyList() string {
	names := flashfc.RoutingStrategies()
	s := ""
	for i, n := range names {
		if i > 0 {
			s += "|"
		}
		s += n
	}
	return s
}

// Check validates what fs.Parse cannot: the -routing name against the
// strategy registry, and the -runs and -workers counts, which must not be
// negative. An invalid value exits 2 with a message naming the flag. Call
// it once after fs.Parse.
func (f *Flags) Check() {
	workers := "workers"
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "parallel" {
			workers = "parallel"
		}
	})
	for _, c := range []struct {
		name string
		n    int
	}{{"runs", f.Runs}, {workers, f.Workers}} {
		if c.n < 0 {
			fmt.Fprintf(os.Stderr, "invalid -%s %d: must be 0 or more\n", c.name, c.n)
			os.Exit(2)
		}
	}
	if f.Routing == "" {
		return
	}
	for _, n := range flashfc.RoutingStrategies() {
		if f.Routing == n {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown -routing %q; registered strategies: %s\n", f.Routing, strategyList())
	os.Exit(2)
}

// TraceFlags are the single-run trace flags. tables and figures run only
// campaigns, so they refuse them with RejectIgnored.
var TraceFlags = []string{"trace", "trace-json", "trace-critical"}

// RejectIgnored exits 2, naming the flag, if any flag in names was set on
// the command line: what (a binary, or a table or figure as "-table 5.3")
// never reads it, and running on would silently drop it. A refused trace
// flag also names the campaign-scale alternatives. Call it after Check.
func (f *Flags) RejectIgnored(what string, names ...string) {
	f.fs.Visit(func(fl *flag.Flag) {
		if slices.Contains(names, fl.Name) {
			msg := fmt.Sprintf("%s ignores -%s; drop the flag", what, fl.Name)
			if slices.Contains(TraceFlags, fl.Name) {
				msg += "; " + f.traceAlternatives()
			}
			fmt.Fprintln(os.Stderr, msg)
			os.Exit(2)
		}
	})
}

// StartProfiles starts the profiles the flags requested and returns a stop
// function that flushes them; call it (once) on every exit path. With no
// profile flags set both start and stop are no-ops.
func (f *Flags) StartProfiles() func() {
	var cpu *os.File
	if f.CPUProfile != "" {
		var err error
		cpu, err = os.Create(f.CPUProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer mf.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(mf, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}
}

// Sinks builds the observability sink the -run-log/-progress flags
// request. It returns the sink to hand campaigns (nil when neither flag is
// set — callers assign it unconditionally) and a finish function to call
// exactly once after the last campaign: it flushes every sink, verifies
// the run log saw a complete, duplicate-free record stream, and closes the
// log file. On a flag error (unwritable -run-log path) it exits.
func (f *Flags) Sinks() (flashfc.Sink, func() error) {
	var sinks []flashfc.Sink
	var file *os.File
	var log *flashfc.RunLog
	if f.RunLog != "" {
		var err error
		file, err = os.Create(f.RunLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "run-log: %v\n", err)
			os.Exit(1)
		}
		log = flashfc.NewRunLog(file, f.RunLogHost)
		sinks = append(sinks, log)
	}
	if f.Progress {
		sinks = append(sinks, flashfc.NewProgress(os.Stderr))
	}
	if len(sinks) == 0 {
		return nil, func() error { return nil }
	}
	sink := flashfc.MultiSink(sinks...)
	done := false
	return sink, func() error {
		if done {
			return nil
		}
		done = true
		sink.Finish()
		if log != nil {
			if err := log.Err(); err != nil {
				file.Close()
				return err
			}
		}
		if file != nil {
			return file.Close()
		}
		return nil
	}
}

// FinishSinks runs a Sinks finish function and exits on error — the shared
// tail of every campaign path.
func FinishSinks(finish func() error) {
	if err := finish(); err != nil {
		fmt.Fprintf(os.Stderr, "run-log: %v\n", err)
		os.Exit(1)
	}
}

// WantTrace reports whether any trace output was requested.
func (f *Flags) WantTrace() bool {
	return f.Trace || f.TraceJSON != "" || f.TraceCritical
}

// traceAlternatives names the campaign-scale alternatives to the trace
// flags that the binary has.
func (f *Flags) traceAlternatives() string {
	alts := []string{"-run-log (per-run records)"}
	if f.fs.Lookup("exemplars") != nil {
		alts = append(alts, "-exemplars (traced tail exemplars)")
	}
	if f.fs.Lookup("run-seed") != nil {
		alts = append(alts, "-run-seed <i> (trace exactly campaign run i)")
	}
	return "for campaigns use " + strings.Join(alts, ", ")
}
