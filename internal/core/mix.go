package core

import (
	"context"
	"encoding/json"
	"fmt"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/gpu"
	"crisp/internal/render"
	"crisp/internal/scenario"
)

// This file lowers a scenario.MixSpec — N tenants with priorities, arrival
// schedules, and deadlines — onto a Job. Each tenant becomes one task and
// owns the stream-id range [task*ComputeStreamBase, (task+1)*
// ComputeStreamBase): a render tenant's frame f occupies a stride of batch
// streams inside it, a compute tenant's request i is the single stream
// base+i. Pair jobs are lowered onto the same routine (addPairStreams), so
// a two-tenant mix with immediate arrivals and no deadlines is
// bit-identical to the pair it describes.

// Tenant is one lowered mix tenant: exactly one of Graphics/Compute holds
// its workload, Arrivals lists the absolute arrival cycle of each instance
// (frames for render tenants, requests for compute ones), and Deadline is
// the per-instance completion budget in cycles after arrival (0 = none).
type Tenant struct {
	Name     string
	Graphics *render.Result
	Compute  *compute.Workload
	Priority int
	Arrivals []int64
	Deadline int64
}

// MixEnv lets callers override how workloads are materialized when
// lowering a mix (Frontend.MixEnv routes them through a cache).
// Overrides must produce bit-identical results to the by-name builders —
// the mix spec resumes and re-runs through them.
type MixEnv struct {
	// Render renders a named scene; nil means RenderScene.
	Render func(sceneName string, opts render.Options) (*render.Result, error)
	// Compute builds a named compute workload; nil means compute.ByName.
	Compute func(name string) (*compute.Workload, error)
}

// BuildMixJobEnv validates and lowers a mix onto a runnable Job, its
// workloads materialized through env (MixEnv{} builds them by name). opts
// applies to every render tenant (mirroring RunPair's single options
// argument).
func BuildMixJobEnv(cfg config.GPU, mix scenario.MixSpec, policy PolicyKind, opts render.Options, env MixEnv) (*Job, error) {
	spec, err := SpecForMix(cfg, mix, policy, opts)
	if err != nil {
		return nil, err
	}
	return jobFromSpec(spec, env)
}

// lowerMix is jobFromSpec's mix half: one Tenant per tenant of the spec's
// canonical mix JSON, its workload materialized through env. The JSON may
// come from a snapshot file, so it is validated like a submitted mix.
func lowerMix(mixJSON []byte, opts render.Options, env MixEnv) ([]Tenant, error) {
	var mix scenario.MixSpec
	if err := json.Unmarshal(mixJSON, &mix); err != nil {
		return nil, fmt.Errorf("core: unreadable mix spec: %w", err)
	}
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	mix.Normalize()
	tenants := make([]Tenant, 0, len(mix.Tenants))
	for _, t := range mix.Tenants {
		arrivals, err := t.Arrival.Times()
		if err != nil {
			return nil, err
		}
		ct := Tenant{Name: t.Name, Priority: t.Priority, Arrivals: arrivals, Deadline: t.Deadline}
		if t.Scene != "" {
			ct.Graphics, err = env.Render(t.Scene, opts)
		} else {
			ct.Compute, err = env.Compute(t.Compute)
		}
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, ct)
	}
	return tenants, nil
}

// addTenantStreams realizes the mix on the GPU: every tenant's streams,
// QoS instance tracking, and explicit placement priorities. It returns the
// task count.
func (j *Job) addTenantStreams(g *gpu.GPU) (int, error) {
	if len(j.Tenants) > scenario.MaxTenants {
		return 0, fmt.Errorf("core: mix has %d tenants, max is %d", len(j.Tenants), scenario.MaxTenants)
	}
	qos := make([]gpu.QoSTenant, len(j.Tenants))
	prios := make([]int, len(j.Tenants))
	for ti, tn := range j.Tenants {
		if (tn.Graphics == nil) == (tn.Compute == nil) {
			return 0, fmt.Errorf("core: mix tenant %d must carry exactly one of graphics or compute work", ti)
		}
		prios[ti] = tn.Priority
		var err error
		if qos[ti], err = j.addTenant(g, ti, tn); err != nil {
			return 0, err
		}
	}
	g.SetQoS(qos)
	g.SetTaskPriorities(prios)
	return len(j.Tenants), nil
}

// addTenant puts one tenant's streams on the GPU as the given task, inside
// the stream range [task*ComputeStreamBase, (task+1)*ComputeStreamBase),
// each behind its instance's NotBefore arrival gate (no arrivals = one
// immediate instance); a render tenant also gets its batch window. It
// returns the tenant's QoS declaration, one instance per arrival.
func (j *Job) addTenant(g *gpu.GPU, task int, tn Tenant) (gpu.QoSTenant, error) {
	base := task * ComputeStreamBase
	arrivals := tn.Arrivals
	if len(arrivals) == 0 {
		arrivals = []int64{0}
	}
	qt := gpu.QoSTenant{Task: task, Label: tn.Name, Priority: tn.Priority}
	if tn.Graphics != nil {
		// A render instance is one frame. Frame f's stream ids are offset
		// by a stride so replays never collide; the kernels (and their
		// addresses) are shared, so later frames see warm caches.
		maxID := 0
		for _, st := range tn.Graphics.Streams {
			if st.Stream > maxID {
				maxID = st.Stream
			}
		}
		stride := maxID + 1
		if len(arrivals)*stride > ComputeStreamBase {
			return qt, fmt.Errorf("core: tenant %q: %d frames × %d streams exceed the tenant stream space", tn.Name, len(arrivals), stride)
		}
		window := j.GraphicsWindow
		if window == 0 {
			window = defaultGraphicsWindow
		}
		g.TaskWindows[task] = window
		for f, at := range arrivals {
			for _, st := range tn.Graphics.Streams {
				id := base + f*stride + st.Stream
				label := st.Label
				if len(arrivals) > 1 {
					label = fmt.Sprintf("f%d.%s", f, st.Label)
				}
				def := gpu.StreamDef{ID: id, Task: task, Label: label, Kernels: renumber(st.Kernels, id), NotBefore: at}
				if err := g.AddStream(def); err != nil {
					return qt, err
				}
			}
			qt.Instances = append(qt.Instances, gpu.QoSInstance{
				Arrival: at, Deadline: absDeadline(at, tn.Deadline),
				FirstStream: base + f*stride, LastStream: base + (f+1)*stride - 1,
			})
		}
		return qt, nil
	}
	// A compute instance is one request: the workload's kernel list on its
	// own stream.
	if len(arrivals) > ComputeStreamBase {
		return qt, fmt.Errorf("core: tenant %q: %d requests exceed the tenant stream space", tn.Name, len(arrivals))
	}
	for i, at := range arrivals {
		id := base + i
		label := tn.Name
		if len(arrivals) > 1 {
			label = fmt.Sprintf("i%d.%s", i, tn.Name)
		}
		def := gpu.StreamDef{ID: id, Task: task, Label: label, Kernels: renumber(tn.Compute.Kernels, id), NotBefore: at}
		if err := g.AddStream(def); err != nil {
			return qt, err
		}
		qt.Instances = append(qt.Instances, gpu.QoSInstance{
			Arrival: at, Deadline: absDeadline(at, tn.Deadline),
			FirstStream: id, LastStream: id,
		})
	}
	return qt, nil
}

// absDeadline converts a relative per-instance deadline to the absolute
// cycle the QoS runtime checks against.
func absDeadline(arrival, deadline int64) int64 {
	if deadline <= 0 {
		return 0
	}
	return arrival + deadline
}

// RunMix is the mix counterpart of RunPair: build the named workloads,
// lower the mix, and run it under policy on cfg.
func RunMix(cfg config.GPU, mix scenario.MixSpec, policy PolicyKind, opts render.Options, runOpts ...RunOption) (*Result, error) {
	return RunMixContext(context.Background(), cfg, mix, policy, opts, runOpts...)
}

// RunMixContext is RunMix with cooperative cancellation.
func RunMixContext(ctx context.Context, cfg config.GPU, mix scenario.MixSpec, policy PolicyKind, opts render.Options, runOpts ...RunOption) (*Result, error) {
	spec, err := SpecForMix(cfg, mix, policy, opts)
	if err != nil {
		return nil, err
	}
	return RunSpec(ctx, spec, nil, runOpts...)
}
