package sm

// taskAccount is one task's per-SM accounting: the resources its
// resident CTAs occupy and how many of its warps are resident.
type taskAccount struct {
	usage Resources
	warps int
}

// taskBand bounds the dense band of a core's task accounts. Task ids are
// small integers assigned in stream-registration order, so virtually
// every lookup indexes the slice.
const taskBand = 256
