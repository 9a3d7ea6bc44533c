package partition

import (
	"strings"
	"testing"

	"crisp/internal/config"
	"crisp/internal/gpu"
	"crisp/internal/sm"
)

func TestSMGroupsCoverAllSMs(t *testing.T) {
	for _, tasks := range []int{2, 3, 4} {
		p, err := NewSMGroups(14, tasks)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, tasks)
		for s := 0; s < 14; s++ {
			owner := -1
			for task := 0; task < tasks; task++ {
				if p.AllowSM(s, task) {
					if owner >= 0 {
						t.Fatalf("tasks=%d: SM %d owned twice", tasks, s)
					}
					owner = task
				}
			}
			if owner < 0 {
				t.Fatalf("tasks=%d: SM %d unowned", tasks, s)
			}
			counts[owner]++
		}
		for task, c := range counts {
			if c < 14/tasks-1 || c > 14/tasks+1 {
				t.Errorf("tasks=%d: task %d got %d SMs", tasks, task, c)
			}
		}
	}
	if _, err := NewSMGroups(4, 8); err == nil {
		t.Error("more groups than SMs accepted")
	}
	// A config too small to split is refused up front by every policy that
	// groups SMs or banks, instead of building a partition in which task 0
	// owns nothing (the job would starve to the watchdog).
	oneSM, oneBank := config.JetsonOrin(), config.JetsonOrin()
	oneSM.NumSMs, oneBank.L2Banks = 1, 1
	for _, row := range []struct {
		name   string
		config config.GPU
		build  func(g *gpu.GPU) error
	}{
		{"MPS on 1 SM", oneSM, func(g *gpu.GPU) error { _, err := NewSMGroups(g.Config().NumSMs, 2); return err }},
		{"MiG on 1 SM", oneSM, func(g *gpu.GPU) error { _, err := NewMiGN(g, taskOfMod(2), 2); return err }},
		{"TAP on 1 SM", oneSM, func(g *gpu.GPU) error { _, err := NewTAPN(g, taskOfMod(2), 2); return err }},
		{"MiG on 1 L2 bank", oneBank, func(g *gpu.GPU) error { _, err := NewMiGN(g, taskOfMod(2), 2); return err }},
	} {
		if err := row.build(newGPU(t, row.config)); err == nil || !strings.Contains(err.Error(), "cannot split 1 ") {
			t.Errorf("%s: got %v, want a cannot-split error", row.name, err)
		}
	}
	p, _ := NewSMGroups(14, 3)
	if p.AllowSM(0, 5) || p.AllowSM(0, -1) {
		t.Error("out-of-range task allowed")
	}
}

func TestFGNSplitsEvenly(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	p := must(NewFGN(g, 4))(t)
	full := sm.Full(g.Config())
	for task := 0; task < 4; task++ {
		if !p.AllowSM(7, task) {
			t.Errorf("task %d not allowed", task)
		}
		lim, ok := p.Limit(0, task)
		if !ok || lim.Threads != full.Threads/4 {
			t.Errorf("task %d limit = %+v", task, lim)
		}
	}
	if _, ok := p.Limit(0, 4); ok {
		t.Error("task 4 got a limit")
	}
	if _, err := NewFGN(g, 0); err == nil {
		t.Error("zero tasks accepted")
	}
}

func TestPriorityEvenOrdering(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	full := sm.Full(g.Config())
	for _, tasks := range []int{2, 3} {
		p := must(NewPriorityEvenN(g, tasks))(t)
		for task := 1; task < tasks; task++ {
			if p.Priority(task-1) <= p.Priority(task) {
				t.Errorf("tasks=%d: task %d must outrank task %d (graphics first)", tasks, task-1, task)
			}
		}
		// Limits are the EVEN split.
		lim, ok := p.Limit(0, 0)
		if !ok || lim.Threads != full.Threads/tasks {
			t.Errorf("tasks=%d: limit = %+v", tasks, lim)
		}
	}
	if p := must(NewPriorityEvenN(g, 2))(t); p.Name() != "PriorityEven" {
		t.Errorf("name = %s", p.Name())
	}
}
