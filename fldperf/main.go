// Command fldperf is the repository benchmark: it builds one workload
// through the flexdriver facade and internal constructors, runs it on
// the sequential reference schedule for a fixed host-time budget, checks
// the outputs, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (the simulator's
// host cost, in reference seconds as calibrate explains, and the
// simulated system's goodput and latency); with -trace 1 a
// separate traced run records spans around the benchmark's calls into
// each layer and prints per-layer metrics and a self-time table.
//
// Run it from the repository root with fldperf/run.sh, which builds it:
//
//	bash fldperf/run.sh --workload echo16 --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: kv100k, echo16 or echo64")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every arrival and popularity stream")
	flag.IntVar(&o.seconds, "seconds", 10, "host seconds to keep repeating the measured run")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "fldperf: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traced == 1
	// The simulation runs on one goroutine. With one P the garbage
	// collector also runs on the measured CPU, so run_s counts the
	// simulator's whole cost instead of depending on whether a second
	// CPU happens to be free for background marking.
	runtime.GOMAXPROCS(1)
	res, err := bench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fldperf:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fldperf: encode result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// heldOutSeed derives the second seed every run must also pass on.
func heldOutSeed(seed int64) int64 { return seed + 1000003 }

// bench runs one workload for o.seconds of host time and returns the
// result line. It writes a human-readable report to w.
func bench(o options, w io.Writer) (result, error) {
	var s spec
	for _, c := range specs {
		if c.name == o.workload {
			s = c
		}
	}
	if s.build == nil {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return result{}, fmt.Errorf("-seconds must be at least 1")
	}
	return measure(s, o, w), nil
}

// measure runs the workload's reps and checks and builds the result.
func measure(s spec, o options, w io.Writer) result {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	do := func(what string, seed int64, tr *tracer, cpu map[string]int64) (rep, bool) {
		r, err := runRep(s, seed, tr, cpu)
		if err != nil {
			fail("%s: %v", what, err)
			return r, false
		}
		for _, c := range r.checks {
			if !c.ok {
				fail("%s: check %q failed: %s", what, c.name, c.detail)
			}
		}
		return r, true
	}

	// The warm-up rep fills caches and sets the reference hash; it is
	// not timed. Every timed rep at the same seed must repeat the hash.
	ref, ok := do("warm-up rep", o.seed, nil, nil)
	peakRSS := peakRSSMB() // before any calibration kernel runs
	var plain, traced []rep
	var cpu map[string]int64
	if o.trace {
		cpu = map[string]int64{}
	}
	const minReps = 3
	budget := time.Duration(o.seconds) * time.Second
	// The calibration kernel runs before the first timed rep and after
	// each one, so its runs spread over the same stretch of host time.
	cals := []float64{calibrate()}
	for start := time.Now(); ok && (len(plain) < minReps || time.Since(start) < budget); {
		var r rep
		if r, ok = do("timed rep", o.seed, nil, nil); ok {
			plain = append(plain, r)
			cals = append(cals, calibrate())
		}
		if ok && o.trace {
			if r, ok = do("traced rep", o.seed, newTracer(), cpu); ok {
				traced = append(traced, r)
			}
		}
	}
	timed := append(append([]rep(nil), plain...), traced...)
	for _, r := range timed {
		if r.hash != ref.hash {
			fail("telemetry hash differs across repeats at seed %d: %.12s vs %.12s", o.seed, r.hash, ref.hash)
			break
		}
	}
	held, heldOK := do(fmt.Sprintf("held-out seed %d", heldOutSeed(o.seed)), heldOutSeed(o.seed), nil, nil)
	if heldOK && held.hash == ref.hash {
		fail("held-out seed %d repeats the telemetry hash of seed %d", heldOutSeed(o.seed), o.seed)
	}

	res := result{Metrics: map[string]metric{}}
	for _, r := range timed {
		res.Attempted += r.attempted
		res.Failed += r.attempted - r.answered
	}
	fmt.Fprintf(w, "workload %s seed %d: %d timed reps", s.name, o.seed, len(plain))
	if o.trace {
		fmt.Fprintf(w, " + %d traced reps", len(traced))
	}
	fmt.Fprintf(w, ", sim window %v, telemetry hash %.16s\n", s.window, ref.hash)
	fmt.Fprintf(w, "held-out seed %d: telemetry hash %.16s, %d checks\n", heldOutSeed(o.seed), held.hash, len(held.checks))
	for _, c := range ref.checks {
		fmt.Fprintf(w, "check %-45s %-5v %s\n", c.name, c.ok, c.detail)
	}
	if len(plain) > 0 {
		if o.trace {
			problems = append(problems, perLayer(w, ref, plain, traced, cpu, res.Metrics)...)
		} else {
			endToEnd(w, ref, plain, median(cals), peakRSS, res.Metrics)
		}
	}
	res.Correct = len(problems) == 0
	if !res.Correct {
		for _, p := range problems {
			fmt.Fprintln(w, "FAIL", p)
		}
		res.Failed = res.Attempted
	}
	if res.Attempted == 0 { // nothing ran to completion: one failed operation
		res.Attempted, res.Failed = 1, 1
	}
	return res
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func each(reps []rep, f func(r rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// peakRSSMB returns the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd fills the untraced metrics: host cost as medians over the
// timed reps, in reference seconds (see hostScale), and the simulated
// system's figures, which every rep at one seed repeats exactly.
func endToEnd(w io.Writer, ref rep, plain []rep, cal, peakRSS float64, m map[string]metric) {
	rawRun := median(each(plain, func(r rep) float64 { return float64(r.runNs) / 1e9 }))
	rawSetup := median(each(plain, func(r rep) float64 { return float64(r.setupNs) / 1e9 }))
	scale := hostScale(cal)
	m["setup_s"] = metric{rawSetup * scale, "s"}
	m["run_s"] = metric{rawRun * scale, "s"}
	m["frames_per_s"] = metric{float64(ref.frames) / (rawRun * scale), "1/s"}
	m["peak_rss_mb"] = metric{peakRSS, "MB"}
	m["sim_goodput_gbps"] = metric{ref.goodputGbps, "Gbit/s"}
	m["sim_p50_us"] = metric{ref.p50us, "us"}
	// A percentile is reported only when at least ten samples lie
	// beyond it.
	if ref.beyond >= 10 {
		m["sim_p999_us"] = metric{ref.p999us, "us"}
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-18s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	runs := each(plain, func(r rep) float64 { return float64(r.runNs) / 1e9 })
	sort.Float64s(runs)
	fmt.Fprintf(w, "wall seconds over %d reps: setup median %.6f, run min %.6f median %.6f max %.6f\n",
		len(runs), rawSetup, runs[0], rawRun, runs[len(runs)-1])
	fmt.Fprintf(w, "calibration kernel median %.6f s: host times scaled by %.4f to reference seconds\n", cal, scale)
	fmt.Fprintf(w, "latency samples: %d window requests answered, %d beyond p999\n", ref.latN, ref.beyond)
	if ref.beyond < 10 {
		fmt.Fprintf(w, "sim_p999_us unmeasured: only %d samples beyond it\n", ref.beyond)
	}
	fmt.Fprintf(w, "operations: %d window requests per rep, %d unanswered\n", ref.attempted, ref.attempted-ref.answered)
}
