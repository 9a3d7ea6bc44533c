package main

import (
	"time"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/gpu"
	"crisp/internal/isa"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/partition"
	"crisp/internal/scenario"
	"crisp/internal/sm"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// universalDrivers are the layer drivers that need no workload data:
// each calls one layer's exported functions in a loop and reports host
// time per call. They run beside every workload, so a per-layer time in
// BENCHMARK.json is measured on all five, and a noisy host shows as all
// of them moving together.
func universalDrivers(r *run, tr *tracer, root int) error {
	scale := 1
	if r.opt.smoke {
		scale = 50
	}
	for _, d := range []struct {
		span string
		fn   func(r *run, scale int) error
	}{
		{"driver.sm", driveSM},
		{"driver.mem", driveMem},
		{"driver.partition", driveObserveL2},
		{"driver.scenario", driveAccount},
		{"driver.snapshot", driveJobDigest},
		{"driver.obs", driveHub},
	} {
		id := tr.begin(d.span, "", root, 0)
		err := d.fn(r, scale)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// noStats discards the per-instruction accounting a bare core reports.
type noStats struct{}

func (noStats) OnIssue(smID, stream, task int, op isa.Opcode, lanes int)       {}
func (noStats) OnStall(smID, stream, task int, cause obs.StallCause)           {}
func (noStats) OnStallN(smID, stream, task int, cause obs.StallCause, n int64) {}

// perCall is host nanoseconds per call.
func perCall(d time.Duration, calls int) float64 { return float64(d.Nanoseconds()) / float64(calls) }

func newBareCore(cfg *config.GPU) (*sm.Core, error) {
	memsys, err := mem.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sm.NewCore(0, cfg, memsys, noStats{}), nil
}

// driveSM steps one core on a private memory system through HOLO CTAs:
// with one CTA resident, then kept at full occupancy; it also times CTA
// issue and the bulk settlement of sleep debt.
func driveSM(r *run, scale int) error {
	cfg := config.JetsonOrin()
	k := compute.HOLO(core.ComputeStreamBase).Kernels[0]
	ctas := len(k.CTAs)

	// stepThrough runs the core until `total` CTAs have completed,
	// keeping up to `resident` of them on the core at once.
	stepThrough := func(resident, total int) (steps int, stepT, issueT time.Duration, issues int, err error) {
		c, err := newBareCore(&cfg)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		next, live, done := 0, 0, 0
		now := int64(0)
		for done < total {
			for live < resident && next < total && c.CanAccept(k, 1) {
				t0 := time.Now()
				c.IssueCTA(now, k, next%ctas, 1, func(int64) { live--; done++ })
				issueT += time.Since(t0)
				issues++
				next++
				live++
			}
			t0 := time.Now()
			wake := c.Step(now)
			stepT += time.Since(t0)
			steps++
			// Jump idle gaps the way the engines do; the driver prices
			// executed steps, not skipped ones.
			if wake > now+1 && wake != sm.Never {
				now = wake
			} else {
				now++
			}
		}
		return steps, stepT, issueT, issues, nil
	}

	lo := 6 / min(scale, 6)
	steps, stepT, _, _, err := stepThrough(1, lo)
	if err != nil {
		return err
	}
	r.sample("sm.step_ns_lo_occ", perCall(stepT, steps))
	steps, stepT, issueT, issues, err := stepThrough(1<<30, 96/min(scale, 12))
	if err != nil {
		return err
	}
	r.sample("sm.step_ns_hi_occ", perCall(stepT, steps))
	r.sample("sm.issue_cta_ns", perCall(issueT, issues))

	c, err := newBareCore(&cfg)
	if err != nil {
		return err
	}
	for i := 0; c.CanAccept(k, 1); i++ {
		c.IssueCTA(0, k, i%ctas, 1, nil)
	}
	c.Step(0)
	const debt = 64
	flushes := 20000 / scale
	var flushT time.Duration
	for i := 0; i < flushes; i++ {
		for s := 0; s < debt; s++ {
			c.Skip()
		}
		t0 := time.Now()
		c.FlushSkipDebt()
		flushT += time.Since(t0)
	}
	r.sample("sm.flush_skip_debt_ns", perCall(flushT, flushes))
	return nil
}

// driveMem issues dependent loads over three address sets sized against
// the modelled caches — 16 KB resident in L1, 1 MB resident in L2, 64 MB
// streaming from DRAM — and stores over the middle one.
func driveMem(r *run, scale int) error {
	cfg := config.JetsonOrin()
	line := uint64(cfg.LineSize)
	for _, set := range []struct {
		metric string
		bytes  uint64
		store  bool
	}{
		{"mem.load_ns_l1hit", 16 << 10, false},
		{"mem.load_ns_l2hit", 1 << 20, false},
		{"mem.load_ns_dram", 64 << 20, false},
		{"mem.store_ns", 1 << 20, true},
	} {
		s, err := mem.NewSystem(&cfg)
		if err != nil {
			return err
		}
		lines := set.bytes / line
		now := int64(0)
		access := func(i uint64) {
			addr := (i % lines) * line
			if set.store {
				now = s.Store(now, 0, core.ComputeStreamBase, trace.ClassCompute, addr) + 1
			} else {
				now = s.Load(now, 0, core.ComputeStreamBase, trace.ClassCompute, addr) + 1
			}
		}
		// One sweep warms the resident sets; the streaming set is larger
		// than the sweep and never repeats a line.
		warm := min(lines, 1<<15)
		for i := uint64(0); i < warm; i++ {
			access(i)
		}
		n := uint64(400000 / scale)
		t0 := time.Now()
		for i := warm; i < warm+n; i++ {
			access(i)
		}
		r.sample(set.metric, perCall(time.Since(t0), int(n)))
	}
	return nil
}

// driveObserveL2 feeds TAP's utility monitors directly, the call the
// memory system makes on every L2 access under TAP.
func driveObserveL2(r *run, scale int) error {
	g, err := gpu.New(config.JetsonOrin())
	if err != nil {
		return err
	}
	tap := partition.NewTAP(g, core.TaskOf)
	n := 2000000 / scale
	t0 := time.Now()
	for i := 0; i < n; i++ {
		stream := (i & 1) * core.ComputeStreamBase
		tap.ObserveL2(stream, uint64(i)*2654435761%(1<<22), i&3 == 0)
	}
	r.sample("partition.observe_l2_ns", perCall(time.Since(t0), n))
	return nil
}

// driveAccount folds a four-tenant, 64-instance completion table into a
// QoS report.
func driveAccount(r *run, scale int) error {
	const tenants, instances = 4, 64
	decl := make([]gpu.QoSTenant, tenants)
	done := make([][]int64, tenants)
	for t := range decl {
		decl[t] = gpu.QoSTenant{Task: t, Label: string(rune('a' + t))}
		for i := 0; i < instances; i++ {
			at := int64(i) * 10_000
			decl[t].Instances = append(decl[t].Instances, gpu.QoSInstance{Arrival: at, Deadline: at + 15_000, FirstStream: i, LastStream: i})
			done[t] = append(done[t], at+int64(5_000+3_000*t+97*i))
		}
	}
	n := 20000 / scale
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scenario.Account(decl, done, 1_000_000)
	}
	r.sample("scenario.account_us", perCall(time.Since(t0), n)/1e3)
	return nil
}

// driveJobDigest hashes a job spec, crispd's cache key, as every
// submission does.
func driveJobDigest(r *run, scale int) error {
	spec := snapshot.Spec{GPU: config.JetsonOrin(), Scene: "SPL", Compute: "VIO", Policy: "EVEN", Complete: true}
	n := 20000 / scale
	t0 := time.Now()
	for i := 0; i < n; i++ {
		spec.JobDigest()
	}
	r.sample("snapshot.job_digest_us", perCall(time.Since(t0), n)/1e3)
	return nil
}

// driveHub publishes lifecycle events into a telemetry hub with no
// subscriber and with four draining ones.
func driveHub(r *run, scale int) error {
	n := 200000 / scale
	publish := func(subs int) float64 {
		hub := obs.NewHub(0)
		stop := make(chan struct{})
		drained := make(chan struct{}, subs)
		for i := 0; i < subs; i++ {
			_, sub, _ := hub.Subscribe(1, 256)
			go func() {
				defer func() { drained <- struct{}{} }()
				for {
					select {
					case _, ok := <-sub.C:
						if !ok {
							return
						}
					case <-stop:
						return
					}
				}
			}()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			hub.Publish(obs.TimelineEvent{Cycle: int64(i), Kind: obs.TimelineLifecycle, State: "running"})
		}
		d := time.Since(t0)
		close(stop)
		hub.Close()
		for i := 0; i < subs; i++ {
			<-drained
		}
		return perCall(d, n)
	}
	r.sample("obs.hub_publish_nosub_ns", publish(0))
	r.sample("obs.hub_publish_ns", publish(4))
	return nil
}
