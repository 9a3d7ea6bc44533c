// Command crisptrace implements the trace-driven workflow: collect a
// workload's execution traces once and replay them in any combination
// later — the Accel-Sim flow the paper builds on ("execution traces can
// be collected separately for each task and replayed together to achieve
// concurrent execution").
//
//	crisptrace collect -scene SPL -o spl.trace.gz
//	crisptrace collect -compute VIO -o vio.trace.gz
//	crisptrace replay -gpu JetsonOrin -policy EVEN spl.trace.gz vio.trace.gz
//	crisptrace info spl.trace.gz
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"crisp"
	"crisp/internal/compute"
	"crisp/internal/core"
	"crisp/internal/isa"
	"crisp/internal/render"
	"crisp/internal/stats"
	"crisp/internal/trace"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "collect":
		collect(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "dump":
		dump(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: crisptrace collect|replay|info|dump [flags]")
	os.Exit(2)
}

// dump disassembles the first warp of a kernel in a trace file.
func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	kernelName := fs.String("kernel", "", "kernel to disassemble (default: first)")
	maxInsts := fs.Int("n", 64, "max instructions to print")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("dump: need a trace file")
	}
	kernels, err := trace.LoadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	var k *trace.Kernel
	for _, cand := range kernels {
		if *kernelName == "" || cand.Name == *kernelName {
			k = cand
			break
		}
	}
	if k == nil {
		log.Fatalf("dump: kernel %q not found", *kernelName)
	}
	w := &k.CTAs[0].Warps[0]
	fmt.Printf("%s  CTA 0 warp 0  (%d instructions, showing %d)\n", k.Name, len(w.Insts), min(len(w.Insts), *maxInsts))
	var lanes [isa.WarpSize]uint64
	var c trace.Cursor
	for i := range w.Insts {
		in := &w.Insts[i]
		if i >= *maxInsts {
			fmt.Println("  ...")
			break
		}
		operands := ""
		if in.Dst != 255 {
			operands = fmt.Sprintf(" R%d", in.Dst)
		}
		for _, src := range []uint8{in.SrcA, in.SrcB, in.SrcC} {
			if src != 255 {
				operands += fmt.Sprintf(", R%d", src)
			}
		}
		extra := ""
		if addrs := w.Addrs(c, in, &lanes); len(addrs) > 0 {
			extra = fmt.Sprintf("  [%#x … %#x] %s", addrs[0], addrs[len(addrs)-1], in.Class)
		}
		c = w.Next(c, in)
		fmt.Printf("  %4d: %-9s%-16s mask=%08x%s\n", i, in.Op.String(), operands, in.Mask, extra)
	}
}

// collect renders a scene or builds a compute workload and saves its
// kernels.
func collect(args []string) {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	sceneName := fs.String("scene", "", "rendering workload to trace")
	computeName := fs.String("compute", "", "compute workload to trace")
	out := fs.String("o", "out.trace.gz", "output trace file")
	w := fs.Int("w", 0, "render width")
	h := fs.Int("h", 0, "render height")
	lod := fs.Bool("lod", true, "enable mipmap LoD")
	fs.Parse(args)

	opts := crisp.DefaultRenderOptions()
	if *w > 0 {
		opts.W = *w
	}
	if *h > 0 {
		opts.H = *h
	}
	opts.LoD = *lod
	kernels, err := collected(*sceneName, *computeName, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.SaveFile(*out, kernels); err != nil {
		log.Fatal(err)
	}
	insts := 0
	for _, k := range kernels {
		insts += k.InstCount()
	}
	fmt.Printf("wrote %s: %d kernels, %d warp instructions\n", *out, len(kernels), insts)
}

// collected is what collect saves: a scene's kernels stream by stream, or
// a compute workload's.
func collected(sceneName, computeName string, opts crisp.RenderOptions) ([]*trace.Kernel, error) {
	switch {
	case sceneName != "" && computeName == "":
		res, err := crisp.RenderScene(sceneName, opts)
		if err != nil {
			return nil, err
		}
		var kernels []*trace.Kernel
		for _, st := range res.Streams {
			kernels = append(kernels, st.Kernels...)
		}
		return kernels, nil
	case computeName != "" && sceneName == "":
		wl, err := crisp.BuildCompute(computeName)
		if err != nil {
			return nil, err
		}
		return wl.Kernels, nil
	}
	return nil, errors.New("collect: need exactly one of -scene or -compute")
}

// replay loads one or more trace files and runs them concurrently; each
// file becomes one task.
func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	gpuName := fs.String("gpu", "JetsonOrin", "GPU config")
	policy := fs.String("policy", "serial", "partition policy")
	fs.Parse(args)
	if fs.NArg() == 0 {
		log.Fatal("replay: need at least one trace file")
	}

	cfg, err := crisp.GPUByName(*gpuName)
	if err != nil {
		log.Fatal(err)
	}
	job, err := replayJob(cfg, core.PolicyKind(*policy), fs.Args())
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		if se, ok := crisp.AsSimError(err); ok {
			log.Fatalf("simulation failed: %s at cycle %d: %s", se.Kind, se.Cycle, se.Msg)
		}
		log.Fatal(err)
	}
	fmt.Print(replaySummary(job, res))
}

// replayJob lowers trace files onto one job: file i is tenant i, so task
// i, named by its file name up to the first dot.
func replayJob(cfg crisp.GPUConfig, policy core.PolicyKind, paths []string) (*core.Job, error) {
	job := &core.Job{GPU: cfg, Policy: policy}
	for _, path := range paths {
		kernels, err := trace.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name, _, _ := strings.Cut(filepath.Base(path), ".")
		tn, err := tenantOf(name, kernels)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		job.Tenants = append(job.Tenants, tn)
	}
	return job, nil
}

// tenantOf lowers one trace file's kernels onto a tenant. A compute file
// is one workload, in file order. A graphics file's kernels are grouped by
// their recorded stream into a frame, each stream labeled as the renderer
// labeled it: its kernels' name less the stage suffix.
func tenantOf(name string, kernels []*trace.Kernel) (core.Tenant, error) {
	if len(kernels) == 0 {
		return core.Tenant{}, errors.New("no kernels")
	}
	graphics := kernels[0].Kind.IsGraphics()
	for _, k := range kernels {
		if k.Kind.IsGraphics() != graphics {
			return core.Tenant{}, errors.New("mixes graphics and compute kernels")
		}
	}
	if !graphics {
		return core.Tenant{Name: name, Compute: &compute.Workload{Name: name, Kernels: kernels}}, nil
	}
	frame := &render.Result{}
	at := make(map[int]int) // recorded stream → index in frame.Streams
	for _, k := range kernels {
		i, ok := at[k.Stream]
		if !ok {
			i = len(frame.Streams)
			at[k.Stream] = i
			frame.Streams = append(frame.Streams, render.StreamTrace{Stream: k.Stream, Label: strings.TrimSuffix(k.Name, filepath.Ext(k.Name))})
		}
		frame.Streams[i].Kernels = append(frame.Streams[i].Kernels, k)
	}
	return core.Tenant{Name: name, Graphics: frame}, nil
}

// replaySummary is replay's report: the makespan, then one row per task in
// task order.
func replaySummary(job *core.Job, res *core.Result) string {
	t := stats.Table{Header: []string{"task", "warp insts", "L2 hit"}}
	for task := range job.Tenants {
		st := res.PerTask[task]
		t.AddRow(fmt.Sprint(task), fmt.Sprint(st.WarpInsts), stats.Pct(st.L2HitRate()))
	}
	return fmt.Sprintf("replayed %d task(s) under %s on %s: %d cycles (%.4f ms)\n%s\n",
		len(job.Tenants), job.Policy, job.GPU.Name, res.Cycles, res.FrameTimeMS, t.String())
}

// info summarizes a trace file.
func info(args []string) {
	if len(args) == 0 {
		log.Fatal("info: need a trace file")
	}
	for _, path := range args {
		kernels, err := trace.LoadFile(path)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		var insts, ctas int
		streams := map[int]bool{}
		for _, k := range kernels {
			insts += k.InstCount()
			ctas += len(k.CTAs)
			streams[k.Stream] = true
		}
		fmt.Printf("%s: %d kernels, %d streams, %d CTAs, %d warp instructions\n",
			path, len(kernels), len(streams), ctas, insts)
		t := stats.Table{Header: []string{"kernel", "kind", "stream", "CTAs", "warp insts", "regs/thread", "shmem"}}
		for _, k := range kernels {
			t.AddRow(k.Name, k.Kind.String(), fmt.Sprint(k.Stream), fmt.Sprint(len(k.CTAs)),
				fmt.Sprint(k.InstCount()), fmt.Sprint(k.RegsPerThread), fmt.Sprint(k.SharedMem))
		}
		fmt.Println(t.String())
		fmt.Println(formatTraffic(kernels))
	}
}

// formatTraffic tabulates what the trace format spends per kernel: heap
// bytes per warp instruction, and how the memory instructions' address
// records divide among the forms (share of records / share of record bytes).
func formatTraffic(kernels []*trace.Kernel) string {
	header := []string{"kernel", "B/warp inst", "addr records", "addr bytes"}
	for f := trace.AddrForm(0); f < trace.AddrFormCount; f++ {
		header = append(header, f.String()+" rec / B")
	}
	t := stats.Table{Header: header}
	row := func(name string, size int64, insts int, c trace.AddrCensus) {
		records, bytes := 0, 0
		for f := range c.Records {
			records, bytes = records+c.Records[f], bytes+c.Bytes[f]
		}
		cells := []string{name, fmt.Sprintf("%.1f", float64(size)/float64(insts)), fmt.Sprint(records), fmt.Sprint(bytes)}
		for f := range c.Records {
			cells = append(cells, stats.Pct(float64(c.Records[f])/float64(max(records, 1)))+" / "+stats.Pct(float64(c.Bytes[f])/float64(max(bytes, 1))))
		}
		t.AddRow(cells...)
	}
	var total trace.AddrCensus
	var totalSize int64
	totalInsts := 0
	for _, k := range kernels {
		c, size, insts := k.AddrCensus(), k.SizeBytes(), k.InstCount()
		total.Add(c)
		totalSize, totalInsts = totalSize+size, totalInsts+insts
		row(k.Name, size, insts, c)
	}
	row("total", totalSize, totalInsts, total)
	return t.String()
}
