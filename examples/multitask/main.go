// Multi-task sharing: an XR frame where rendering co-runs with TWO system
// services — VIO tracking and RITnet eye segmentation — as three tasks on
// one GPU. The paper studies pairs and notes the framework "can be easily
// extended to support more than 2 workloads"; this example exercises that
// extension as a three-tenant mix under three-way MPS and three-way
// intra-SM EVEN sharing.
package main

import (
	"fmt"
	"log"

	"crisp"
)

func main() {
	cfg := crisp.JetsonOrin()
	mix := crisp.MixSpec{Name: "multitask", Tenants: []crisp.MixTenant{
		{Scene: "PL"},
		{Compute: "VIO"},
		{Compute: "NN"},
	}}
	fe := crisp.NewFrontend()

	fmt.Printf("Platformer + VIO + NN (three tasks) on %s\n\n", cfg.Name)
	for _, pol := range []crisp.PolicyKind{crisp.PolicySerial, crisp.PolicyMPS, crisp.PolicyEven} {
		res, err := crisp.RunMix(cfg, mix, pol, crisp.DefaultRenderOptions(), crisp.WithFrontend(fe))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s %8d cycles\n", pol, res.Cycles)
		for task := 0; task < 3; task++ {
			if st, ok := res.PerTask[task]; ok {
				label := [3]string{"render", "VIO", "NN"}[task]
				fmt.Printf("          task %d (%-6s): %8d insts, L2 hit %.0f%%\n",
					task, label, st.WarpInsts, 100*st.L2HitRate())
			}
		}
	}
}
