package sm

import (
	"crisp/internal/isa"
	"crisp/internal/obs"
	"crisp/internal/trace"
)

// This file is the request/response split of the sm→mem interface, the
// foundation of the parallel stepping engine's two-phase protocol.
//
// In direct mode (Core.log == nil, the serial reference engine) an issue
// slot applies its cross-SM side effects — memory-system loads and stores,
// per-stream statistics, CTA-completion callbacks — immediately, exactly
// as the simulator always has.
//
// In buffered mode (Core.SetBuffered(true)) the same slots append those
// effects to a per-SM IssueLog instead, touching nothing outside the SM.
// That makes Core.Step safe to run concurrently with other SMs' steps:
// all state written during a buffered step is owned by this core (warp and
// CTA runtime state, scheduler cursors, pipeline reservations, slot
// counters). The engine then drains the logs serially in canonical order —
// ascending SM id, and within an SM the exact order the events were
// recorded (scheduler id, then program order) — which is precisely the
// order the serial engine interleaves the same calls in. The memory system
// and the statistics sinks therefore observe an identical call sequence,
// making the committed state, stats, stall attribution, digests, and
// checkpoints byte-identical to a serial run at any worker count.
//
// The one response that flows back into SM state, a load's data-ready
// cycle, is written into the issuing warp's scoreboard during commit. That
// is sound because nothing reads the destination register's readiness
// between the buffered issue and the commit: a warp issues at most once
// per step, and the next step — the earliest point any scheduler
// re-examines the scoreboard — begins only after every log is drained.

// logKind discriminates buffered issue-slot effects.
type logKind uint8

const (
	logIssue logKind = iota
	logStall
	logLoad
	logStore
	logComplete
)

// logEvent is one recorded effect. Load/store events reference a span of
// the log's shared line buffer rather than holding their own slice, so a
// step's recording allocates nothing once the buffers are warm.
type logEvent struct {
	kind   logKind
	op     isa.Opcode
	class  trace.MemClass
	dst    isa.Reg
	cause  obs.StallCause
	stream int32
	task   int32
	lanes  int32
	lineLo int32
	lineHi int32
	ready  int64 // loads: minimum data-ready cycle before memory responses
	warp   *warpRT
	done   func(now int64)
}

// IssueLog is one SM's ordered buffer of deferred cross-SM effects.
type IssueLog struct {
	events []logEvent
	lines  []uint64
}

func (l *IssueLog) addLoad(w *warpRT, op isa.Opcode, class trace.MemClass, dst isa.Reg, lines []uint64, minReady int64) {
	lo := int32(len(l.lines))
	l.lines = append(l.lines, lines...)
	l.events = append(l.events, logEvent{
		kind: logLoad, op: op, class: class, dst: dst,
		stream: int32(w.stream), lineLo: lo, lineHi: int32(len(l.lines)),
		ready: minReady, warp: w,
	})
}

func (l *IssueLog) addStore(w *warpRT, class trace.MemClass, lines []uint64) {
	lo := int32(len(l.lines))
	l.lines = append(l.lines, lines...)
	l.events = append(l.events, logEvent{
		kind: logStore, class: class,
		stream: int32(w.stream), lineLo: lo, lineHi: int32(len(l.lines)),
	})
}

func (l *IssueLog) addIssue(w *warpRT, op isa.Opcode, lanes int) {
	l.events = append(l.events, logEvent{
		kind: logIssue, op: op,
		stream: int32(w.stream), task: int32(w.task), lanes: int32(lanes),
	})
}

func (l *IssueLog) addStall(w *warpRT, cause obs.StallCause) {
	l.events = append(l.events, logEvent{
		kind: logStall, cause: cause,
		stream: int32(w.stream), task: int32(w.task),
	})
}

func (l *IssueLog) addComplete(fn func(now int64)) {
	l.events = append(l.events, logEvent{kind: logComplete, done: fn})
}

// reset empties the log for the next step, keeping capacity. Pointer
// fields are not zeroed: the retained warp/closure references are
// overwritten on the next step and the log's lifetime is the run's.
func (l *IssueLog) reset() {
	l.events = l.events[:0]
	l.lines = l.lines[:0]
}

// SetBuffered switches the core between direct effects (false, the serial
// reference path) and the recorded two-phase protocol (true). It must only
// be flipped between steps, with the log drained.
func (c *Core) SetBuffered(on bool) {
	if on {
		if c.log == nil {
			c.log = &IssueLog{}
		}
		return
	}
	c.log = nil
}

// CommitStep is phase B for this core: it applies the effects a buffered
// Step recorded at cycle now to the shared memory system and statistics
// sinks, in the exact order the serial engine would have produced them,
// then clears the log. The caller serializes CommitStep across cores in
// ascending SM id.
func (c *Core) CommitStep(now int64) {
	lg := c.log
	if lg == nil || len(lg.events) == 0 {
		return
	}
	lineSize := uint64(c.cfg.LineSize)
	for i := range lg.events {
		ev := &lg.events[i]
		switch ev.kind {
		case logLoad:
			ready := ev.ready
			for _, la := range lg.lines[ev.lineLo:ev.lineHi] {
				if r := c.memsys.Load(now, c.ID, int(ev.stream), ev.class, la*lineSize); r > ready {
					ready = r
				}
			}
			if ev.op == isa.OpTEX {
				ready += c.TexFilterLatency
			}
			if ev.dst != isa.RegNone {
				// The warp is still resident: it issued this load in the step
				// being committed and a warp issues at most once per step.
				// setReg also clears its memo and its scheduler's stall record.
				ev.warp.sched.setReg(ev.warp, ev.dst, ready, true)
			}
		case logStore:
			for _, la := range lg.lines[ev.lineLo:ev.lineHi] {
				c.memsys.Store(now, c.ID, int(ev.stream), ev.class, la*lineSize)
			}
		case logIssue:
			c.stats.OnIssue(c.ID, int(ev.stream), int(ev.task), ev.op, int(ev.lanes))
		case logStall:
			c.stats.OnStall(c.ID, int(ev.stream), int(ev.task), ev.cause)
		case logComplete:
			ev.done(now)
		}
	}
	lg.reset()
}
