// Package config holds the simulated GPU configurations. The two built-in
// configurations reproduce Table II of the paper: the NVIDIA Jetson Orin
// (embedded, LPDDR5) and the NVIDIA RTX 3070 (discrete, GDDR6), both
// Ampere-class parts sharing the same SM organization.
package config

import "fmt"

// GPU describes one simulated GPU. The JSON keys are a configuration
// file's (LoadFile).
type GPU struct {
	Name string `json:"name"`

	// SM organization.
	NumSMs          int `json:"num_sms"`
	RegistersPerSM  int `json:"registers_per_sm"` // 32-bit registers
	MaxWarpsPerSM   int `json:"max_warps_per_sm"`
	MaxCTAsPerSM    int `json:"max_ctas_per_sm"`
	SchedulersPerSM int `json:"schedulers_per_sm"`
	SharedMemPerSM  int `json:"shared_mem_per_sm"` // bytes available as shared memory
	// Execution units per SM (one pipeline each per scheduler in Ampere).
	FPUnits     int `json:"fp_units"`
	SFUUnits    int `json:"sfu_units"`
	INTUnits    int `json:"int_units"`
	TensorUnits int `json:"tensor_units"`

	// Cache hierarchy.
	L1Size      int `json:"l1_size"` // bytes; unified data+texture (+ shared carve-out handled separately)
	L1Assoc     int `json:"l1_assoc"`
	L2Size      int `json:"l2_size"` // bytes, total across banks
	L2Assoc     int `json:"l2_assoc"`
	L2Banks     int `json:"l2_banks"`
	LineSize    int `json:"line_size"` // bytes
	L1MSHRs     int `json:"l1_mshrs"`
	L2MSHRs     int `json:"l2_mshrs"`
	L1Latency   int `json:"l1_latency"`   // hit latency, core cycles
	L2Latency   int `json:"l2_latency"`   // hit latency beyond L1, core cycles
	DRAMLatency int `json:"dram_latency"` // row access latency beyond L2, core cycles

	// Clocks and memory system.
	CoreClockMHz     int     `json:"core_clock_mhz"`
	MemBandwidthGBps float64 `json:"mem_bandwidth_gbps"`
	MemChannels      int     `json:"mem_channels"`
	MemTech          string  `json:"mem_tech"`
}

// BytesPerCycle is the aggregate DRAM bandwidth expressed in bytes per core
// cycle, the unit the DRAM model meters traffic in.
func (g *GPU) BytesPerCycle() float64 {
	return g.MemBandwidthGBps * 1e9 / (float64(g.CoreClockMHz) * 1e6)
}

// FrameTimeMS converts a cycle count to milliseconds at the core clock.
func (g *GPU) FrameTimeMS(cycles int64) float64 {
	return float64(cycles) / (float64(g.CoreClockMHz) * 1e3)
}

// Validate checks the configuration for internally consistent values.
func (g *GPU) Validate() error {
	switch {
	case g.NumSMs <= 0:
		return fmt.Errorf("config %q: NumSMs = %d", g.Name, g.NumSMs)
	case g.SchedulersPerSM <= 0:
		return fmt.Errorf("config %q: SchedulersPerSM = %d", g.Name, g.SchedulersPerSM)
	case g.LineSize < 2:
		return fmt.Errorf("config %q: LineSize = %d (a line holds at least two bytes)", g.Name, g.LineSize)
	case g.L1Assoc <= 0 || g.L2Assoc <= 0:
		return fmt.Errorf("config %q: cache associativity must be positive (L1 %d, L2 %d)", g.Name, g.L1Assoc, g.L2Assoc)
	case g.MaxWarpsPerSM <= 0 || g.MaxWarpsPerSM%g.SchedulersPerSM != 0:
		return fmt.Errorf("config %q: MaxWarpsPerSM (%d) must be a positive multiple of SchedulersPerSM (%d)", g.Name, g.MaxWarpsPerSM, g.SchedulersPerSM)
	case g.L2Banks <= 0 || g.L2Size%g.L2Banks != 0:
		return fmt.Errorf("config %q: L2Size (%d) must divide evenly across L2Banks (%d)", g.Name, g.L2Size, g.L2Banks)
	case (g.L2Size/g.L2Banks)%(g.L2Assoc*g.LineSize) != 0:
		return fmt.Errorf("config %q: L2 bank size is not a whole number of sets", g.Name)
	case g.L1Size%(g.L1Assoc*g.LineSize) != 0:
		return fmt.Errorf("config %q: L1 size is not a whole number of sets", g.Name)
	case g.MemBandwidthGBps <= 0:
		return fmt.Errorf("config %q: MemBandwidthGBps = %v", g.Name, g.MemBandwidthGBps)
	case g.MemChannels <= 0:
		return fmt.Errorf("config %q: MemChannels = %d", g.Name, g.MemChannels)
	}
	return nil
}

// ampereSM fills the SM parameters shared by both Table II configs:
// 64 warps/SM, 4 schedulers, 65536 registers, 4 FP/SFU/INT/Tensor units.
func ampereSM(g GPU) GPU {
	g.RegistersPerSM = 65536
	g.MaxWarpsPerSM = 64
	g.MaxCTAsPerSM = 32
	g.SchedulersPerSM = 4
	g.FPUnits = 4
	g.SFUUnits = 4
	g.INTUnits = 4
	g.TensorUnits = 4
	g.L1Assoc = 4
	g.L2Assoc = 16
	g.LineSize = 128
	g.L1MSHRs = 64
	g.L2MSHRs = 128
	g.L1Latency = 28
	g.L2Latency = 190
	g.DRAMLatency = 260
	return g
}

// JetsonOrin returns the embedded-GPU configuration from Table II:
// 14 SMs, 196 KB L1+shared, 4 MB L2, LPDDR5 at 200 GB/s, 1300 MHz.
func JetsonOrin() GPU {
	return ampereSM(GPU{
		Name:             "JetsonOrin",
		NumSMs:           14,
		SharedMemPerSM:   64 << 10,
		L1Size:           128 << 10, // 196 KB combined; 64 KB carved out as shared memory
		L2Size:           4 << 20,
		L2Banks:          16,
		CoreClockMHz:     1300,
		MemBandwidthGBps: 200,
		MemChannels:      8,
		MemTech:          "LPDDR5",
	})
}

// RTX3070 returns the discrete-GPU configuration from Table II:
// 46 SMs, 128 KB L1+shared, 4 MB L2, GDDR6 at 448 GB/s, 1132 MHz.
func RTX3070() GPU {
	return ampereSM(GPU{
		Name:             "RTX3070",
		NumSMs:           46,
		SharedMemPerSM:   64 << 10,
		L1Size:           64 << 10, // 128 KB combined; 64 KB carved out as shared memory
		L2Size:           4 << 20,
		L2Banks:          16,
		CoreClockMHz:     1132,
		MemBandwidthGBps: 448,
		MemChannels:      8,
		MemTech:          "GDDR6",
	})
}

// ByName returns a built-in configuration by (case-sensitive) name.
func ByName(name string) (GPU, error) {
	switch name {
	case "JetsonOrin", "orin":
		return JetsonOrin(), nil
	case "RTX3070", "3070":
		return RTX3070(), nil
	}
	return GPU{}, fmt.Errorf("config: unknown GPU %q (want JetsonOrin or RTX3070)", name)
}
