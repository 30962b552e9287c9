// Command ipasbench is the repository's benchmark: three workloads that
// together cross every layer of the system, from campaigns through the
// coordinator and the sectioned engine to the full IPAS workflow,
// measured from outside through the layers' exported APIs, progress
// hooks and the coordinator's HTTP API.
//
//	bash cmd/ipasbench/run.sh --workload remote-fft --seed 1 --seconds 40 --trace 0
//
// With --workload, one workload runs in this process and the last line
// of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"} holding the end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced run. Without --workload
// every workload runs once in a fresh child process and each child's
// result line is printed under the workload's name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOptions
	fs.StringVar(&o.workload, "workload", "", "workload to run in this process (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every campaign seed of the run is derived from")
	fs.Float64Var(&o.seconds, "seconds", 40, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: record spans and print the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "span file a traced run writes (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ipasbench: --trace must be 0 or 1")
		return 2
	}
	o.traced = *trace == 1
	if o.workload == "" {
		return runChildren(o, stdout, stderr)
	}
	w := lookupWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "ipasbench: unknown workload %q (have %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "ipasbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(stderr, "ipasbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	b := runWorkload(w, o, fullSize)
	res := b.result()
	b.printTable(stderr)
	if o.traced {
		if err := b.tr.write(o.spans); err != nil {
			fmt.Fprintf(stderr, "ipasbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans written to %s\n", o.spans)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ipasbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable writes the run's metrics, and for a traced run each
// layer's self time, for a human reader.
func (b *bench) printTable(w io.Writer) {
	mode := "end-to-end"
	if b.tr != nil {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s seed %d: %s metrics over %d passes, %d/%d operations failed\n", b.name, b.seed, mode, b.passes, b.failed, b.attempted)
	res := b.result()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  raw wall %.4g s, reference loop median %.4g ms (nominal %.4g ms)\n",
		b.vals["host.wall_s"], b.vals["host.ref_ms"], 1e3*refNominal.Seconds())
	if b.tr == nil {
		return
	}
	self, wall := b.tr.layerSelf()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "  self time by layer over %.3f s of traced set-ups and units\n", wall)
	fmt.Fprintf(w, "  (bench: the benchmark's own code between layer calls):\n")
	for _, l := range layers {
		fmt.Fprintf(w, "    %-10s %10.4f s %6.1f%%\n", l, self[l], 100*ratio(self[l], wall))
	}
	fmt.Fprintf(w, "  trace.overhead_frac %.4f, core.unattributed_s %.4f\n",
		res.Metrics["trace.overhead_frac"].Value, res.Metrics["core.unattributed_s"].Value)
}
