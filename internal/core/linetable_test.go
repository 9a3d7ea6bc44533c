package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/render"
	"crisp/internal/robust"
	"crisp/internal/robust/inject"
	"crisp/internal/scene"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
	"crisp/internal/trace/tracetest"
)

// This file gates the issue loop's "know it once" changes end to end: the
// line table the front ends and trace.Load derive, the paths that do
// without it, and the schedulers' stall replay across a restore.

func frameKernels(res *render.Result) []*trace.Kernel {
	var ks []*trace.Kernel
	for _, st := range res.Streams {
		ks = append(ks, st.Kernels...)
	}
	return ks
}

// TestLineTablesMatchReference holds every instruction of every front-end
// product to the code the table replaced (tracetest's reference coalescer
// and bank-conflict count, test-only now): after Builder.Finish — fragment
// kernels are stitched from many Builders' CTAs — and after a Save and Load
// round trip, which must also re-save to the same bytes.
func TestLineTablesMatchReference(t *testing.T) {
	products := map[string][]*trace.Kernel{}
	var order []string
	add := func(id string, ks []*trace.Kernel) {
		products[id] = ks
		order = append(order, id)
	}
	for _, name := range compute.Names() {
		w, err := compute.ByName(name, ComputeStreamBase)
		if err != nil {
			t.Fatal(err)
		}
		add(name, w.Kernels)
	}
	type frame struct {
		scene string
		w, h  int
	}
	var frames []frame
	for _, name := range scene.Names() {
		frames = append(frames, frame{name, 320, 180})
	}
	if !testing.Short() {
		frames = append(frames, frame{"SPH", 640, 360}, frame{"PT", 640, 360})
	}
	for _, f := range frames {
		opts := render.DefaultOptions()
		opts.W, opts.H = f.w, f.h
		res, err := RenderScene(f.scene, opts)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("%s@%dx%d", f.scene, f.w, f.h), frameKernels(res))
	}
	for _, id := range order {
		ks := products[id]
		lines, conflicts, err := tracetest.CheckLineTable(ks)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if lines == 0 {
			t.Errorf("%s: no memory instruction was checked", id)
		}
		var file bytes.Buffer
		if err := trace.Save(&file, ks); err != nil {
			t.Fatal(err)
		}
		saved := bytes.Clone(file.Bytes())
		loaded, err := trace.Load(&file)
		if err != nil {
			t.Fatal(err)
		}
		l2, c2, err := tracetest.CheckLineTable(loaded)
		if err != nil {
			t.Errorf("%s after Save and Load: %v", id, err)
		}
		if l2 != lines || c2 != conflicts {
			t.Errorf("%s: %d+%d table entries built, %d+%d after reload", id, lines, conflicts, l2, c2)
		}
		var again bytes.Buffer
		if err := trace.Save(&again, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, again.Bytes()) {
			t.Errorf("%s: the reloaded trace re-saves to different bytes", id)
		}
		t.Logf("%-12s %7d line entries, %6d conflict entries", id, lines, conflicts)
	}
}

// TestRunsWithoutLineTable: a kernel whose table is absent and a config
// whose line size is not the one tables are derived at both take the
// derive-at-issue path in the default mode, and must land on the digests of
// the tabled run and of the -no-skip oracle (which never reads a table).
func TestRunsWithoutLineTable(t *testing.T) {
	nn, err := compute.ByName("NN", ComputeStreamBase) // LDG, STG, STS/LDS with offsets, barriers
	if err != nil {
		t.Fatal(err)
	}
	frame, err := RenderScene("SPL", tinyOpts()) // TEX
	if err != nil {
		t.Fatal(err)
	}
	run := func(label string, cfg config.GPU, gfx *render.Result, cw *compute.Workload, noSkip bool) *Result {
		t.Helper()
		res, err := (&Job{GPU: cfg, Graphics: gfx, Compute: cw, Policy: PolicyEven, NoSkip: noSkip, DigestEvery: 5_000}).Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}

	tabled := run("tabled", config.JetsonOrin(), frame, nn, false)
	oracle := run("oracle", config.JetsonOrin(), frame, nn, true)
	expectIdentical(t, oracle, tabled, "tabled vs oracle")

	bare := *nn
	bare.Kernels = inject.CloneKernels(nn.Kernels)
	bareFrame := *frame
	bareFrame.Streams = nil
	for _, st := range frame.Streams {
		st.Kernels = inject.CloneKernels(st.Kernels)
		bareFrame.Streams = append(bareFrame.Streams, st)
	}
	for _, k := range append(frameKernels(&bareFrame), bare.Kernels...) {
		k.DropLineTable()
	}
	expectIdentical(t, oracle, run("no table", config.JetsonOrin(), &bareFrame, &bare, false), "no table vs oracle")

	narrowLines := config.JetsonOrin()
	narrowLines.LineSize = 64
	if err := narrowLines.Validate(); err != nil {
		t.Fatalf("a 64 B line config: %v", err)
	}
	if nn.Kernels[0].CTAs[0].Warps[0].HasLineTable(narrowLines.LineSize) {
		t.Fatal("the 128 B table answers for 64 B lines")
	}
	fast := run("64 B lines", narrowLines, frame, nn, false)
	expectIdentical(t, run("64 B lines, oracle", narrowLines, frame, nn, true), fast, "64 B lines vs oracle")
	if fast.Cycles == tabled.Cycles {
		t.Errorf("64 B and 128 B lines both took %d cycles: the line size did not reach the coalescer", fast.Cycles)
	}
}

// TestReplayResumeMidSleep kills the latency-bound NN job (cores parked on
// DRAM fills, their schedulers holding stall records) in the middle of a
// sleep and resumes it under either skip mode. Stall records are not in a
// snapshot, nor are the warps' stream cursors (a restore walks each warp's
// program to its PC); a restored run rebuilds both, and must reproduce the
// straight run's per-stream stall attribution and its whole state-digest
// stream. The kill finds warps past memory instructions, so the cursors it
// rebuilds are not the first instruction's.
func TestReplayResumeMidSleep(t *testing.T) {
	if testing.Short() {
		t.Skip("eight NN simulations")
	}
	cfg := config.RTX3070()
	cfg.SharedMemPerSM = 6 << 10
	cfg.L1MSHRs, cfg.L2MSHRs = 4, 16
	cfg.DRAMLatency *= 8
	nn, err := compute.ByName("NN", ComputeStreamBase) // the job's traces, for the warps' programs
	if err != nil {
		t.Fatal(err)
	}
	opts := func(noSkip bool, more ...RunOption) []RunOption {
		o := append([]RunOption{WithStateDigest(20_000)}, more...)
		if noSkip {
			o = append(o, WithNoSkip())
		}
		return o
	}
	oracle, err := RunPair(cfg, "", "NN", PolicyMPS, tinyOpts(), opts(true)...)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.StallReplays != 0 || oracle.StepsSkipped != 0 {
		t.Errorf("the oracle replayed %d stalls and skipped %d steps", oracle.StallReplays, oracle.StepsSkipped)
	}
	same := func(label string, res *Result) {
		t.Helper()
		expectIdentical(t, oracle, res, label)
		for i, st := range oracle.PerStream {
			if !reflect.DeepEqual(st.Stalls, res.PerStream[i].Stalls) {
				t.Errorf("%s: stream %d stalls %v, the oracle's %v", label, st.Stream, res.PerStream[i].Stalls, st.Stalls)
			}
		}
	}
	straight, err := RunPair(cfg, "", "NN", PolicyMPS, tinyOpts(), opts(false)...)
	if err != nil {
		t.Fatal(err)
	}
	same("straight", straight)
	if straight.StallReplays == 0 || straight.StepsSkipped == 0 {
		t.Errorf("%d stalls replayed, %d steps skipped: the run exercises neither", straight.StallReplays, straight.StepsSkipped)
	}
	for _, noSkip := range []bool{false, true} {
		label := fmt.Sprintf("killed(noskip=%v)", noSkip)
		dir := t.TempDir()
		_, err := RunPair(cfg, "", "NN", PolicyMPS, tinyOpts(),
			opts(noSkip, WithCycleBudget(oracle.Cycles/2), WithCheckpointDir(dir))...)
		if se, ok := robust.AsSimError(err); !ok || robust.DeepestKind(se) != robust.KindBudget {
			t.Fatalf("%s: budget kill: got %v", label, err)
		}
		env, err := LoadSnapshot(filepath.Join(dir, "final.crispsnap"))
		if err != nil {
			t.Fatal(err)
		}
		asleep := 0
		for _, c := range env.State.Arch.Cores {
			if len(c.CTAs) > 0 && c.WakeAt > env.State.Arch.Cycle+1 {
				asleep++
			}
		}
		if asleep == 0 {
			t.Fatalf("%s: no busy core is asleep at the kill cycle %d", label, env.State.Arch.Cycle)
		}
		past := 0
		for _, c := range env.State.Arch.Cores {
			for _, s := range c.Scheds {
				for _, ws := range s.Warps {
					cta := c.CTAs[slices.IndexFunc(c.CTAs, func(st snapshot.CTAState) bool { return st.Ref == ws.CTA })]
					if w := &nn.Kernels[cta.KernelIdx].CTAs[cta.CTAIdx].Warps[ws.WarpIdx]; w.CursorAt(ws.PC) != (trace.Cursor{}) {
						past++
					}
				}
			}
		}
		if past == 0 {
			t.Fatalf("%s: no resident warp is past a memory instruction at the kill cycle %d", label, env.State.Arch.Cycle)
		}
		for _, resumeNoSkip := range []bool{false, true} {
			res, err := ResumeContext(context.Background(), env, opts(resumeNoSkip)...)
			if err != nil {
				t.Fatalf("%s: resume (noskip=%v): %v", label, resumeNoSkip, err)
			}
			same(fmt.Sprintf("%s/resumed(noskip=%v)", label, resumeNoSkip), res)
		}
	}
}

// TestCursorsMatchWalkFromStart holds the ways the timing model finds a
// warp's streams to each other, on every warp of the preset zoo at 128×72:
// the cursors an issue moves past each memory instruction (sm.warpRT: past
// the table entry alone where the warp issues from the line table, past the
// record too where it derives from the addresses) and the one a restore
// walks to the warp's PC from its first instruction (trace.Warp.CursorAt).
// At every PC the derive-at-issue cursor must be the walked one — the same
// line-table entry, lines and address record — and the table cursor must
// give the same lines and conflict degree.
func TestCursorsMatchWalkFromStart(t *testing.T) {
	products := map[string][]*trace.Kernel{}
	for _, name := range compute.Names() {
		w, err := compute.ByName(name, ComputeStreamBase)
		if err != nil {
			t.Fatal(err)
		}
		products[name] = w.Kernels
	}
	for _, name := range scene.Names() {
		res, err := RenderScene(name, tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		products[name] = frameKernels(res)
	}
	for _, id := range append(compute.Names(), scene.Names()...) {
		ks := products[id]
		warps, steps := 0, 0
		for _, k := range ks {
			for i := range k.CTAs {
				for j := range k.CTAs[i].Warps {
					w := &k.CTAs[i].Warps[j]
					var table, derived trace.Cursor
					for pc := range w.Insts {
						in := &w.Insts[pc]
						walked := w.CursorAt(pc)
						where := fmt.Sprintf("%s kernel %q CTA %d warp %d pc %d (%v)", id, k.Name, i, j, pc, in.Op)
						if derived != walked {
							t.Fatalf("%s: issue reached cursor %+v, a walk from 0 %+v", where, derived, walked)
						}
						switch isa.SpaceOf(in.Op) {
						case isa.SpaceGlobal, isa.SpaceTexture:
							if got, want := w.Lines(table), w.Lines(walked); !slices.Equal(got, want) {
								t.Fatalf("%s: the table cursor gives lines %v, the walked one %v", where, got, want)
							}
						case isa.SpaceShared:
							if got, want := w.ConflictDegree(table), w.ConflictDegree(walked); got != want {
								t.Fatalf("%s: the table cursor gives degree %d, the walked one %d", where, got, want)
							}
						}
						if isa.UnitOf(in.Op) == isa.UnitLDST {
							table, derived = w.NextEntry(table, in), w.Next(derived, in)
						}
						steps++
					}
					warps++
				}
			}
		}
		t.Logf("%-8s %6d warps, %8d cursors", id, warps, steps)
	}
}
