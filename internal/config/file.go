package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The paper's artifact supports experiment customization "by adjusting the
// GPU configuration file"; LoadFile provides the same workflow: a JSON
// file overriding any subset of a base configuration's fields.

// fileConfig mirrors GPU with pointer fields so absent keys inherit the
// base configuration.
type fileConfig struct {
	Name             *string  `json:"name"`
	Base             *string  `json:"base"` // "JetsonOrin" or "RTX3070"; default JetsonOrin
	NumSMs           *int     `json:"num_sms"`
	RegistersPerSM   *int     `json:"registers_per_sm"`
	MaxWarpsPerSM    *int     `json:"max_warps_per_sm"`
	MaxCTAsPerSM     *int     `json:"max_ctas_per_sm"`
	SchedulersPerSM  *int     `json:"schedulers_per_sm"`
	SharedMemPerSM   *int     `json:"shared_mem_per_sm"`
	FPUnits          *int     `json:"fp_units"`
	SFUUnits         *int     `json:"sfu_units"`
	INTUnits         *int     `json:"int_units"`
	TensorUnits      *int     `json:"tensor_units"`
	L1Size           *int     `json:"l1_size"`
	L1Assoc          *int     `json:"l1_assoc"`
	L2Size           *int     `json:"l2_size"`
	L2Assoc          *int     `json:"l2_assoc"`
	L2Banks          *int     `json:"l2_banks"`
	LineSize         *int     `json:"line_size"`
	L1MSHRs          *int     `json:"l1_mshrs"`
	L2MSHRs          *int     `json:"l2_mshrs"`
	L1Latency        *int     `json:"l1_latency"`
	L2Latency        *int     `json:"l2_latency"`
	DRAMLatency      *int     `json:"dram_latency"`
	CoreClockMHz     *int     `json:"core_clock_mhz"`
	MemBandwidthGBps *float64 `json:"mem_bandwidth_gbps"`
	MemChannels      *int     `json:"mem_channels"`
	MemTech          *string  `json:"mem_tech"`
}

// LoadFile reads a JSON GPU configuration. Fields not present inherit
// from the "base" configuration (JetsonOrin by default). The result is
// validated.
func LoadFile(path string) (GPU, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return GPU{}, err
	}
	return Parse(data)
}

// Parse decodes a JSON GPU configuration (see LoadFile).
func Parse(data []byte) (GPU, error) {
	var fc fileConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return GPU{}, fmt.Errorf("config: parse: %w", err)
	}
	g := JetsonOrin()
	if fc.Base != nil {
		base, err := ByName(*fc.Base)
		if err != nil {
			return GPU{}, err
		}
		g = base
	}
	setS := func(dst *string, src *string) {
		if src != nil {
			*dst = *src
		}
	}
	setI := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setS(&g.Name, fc.Name)
	setI(&g.NumSMs, fc.NumSMs)
	setI(&g.RegistersPerSM, fc.RegistersPerSM)
	setI(&g.MaxWarpsPerSM, fc.MaxWarpsPerSM)
	setI(&g.MaxCTAsPerSM, fc.MaxCTAsPerSM)
	setI(&g.SchedulersPerSM, fc.SchedulersPerSM)
	setI(&g.SharedMemPerSM, fc.SharedMemPerSM)
	setI(&g.FPUnits, fc.FPUnits)
	setI(&g.SFUUnits, fc.SFUUnits)
	setI(&g.INTUnits, fc.INTUnits)
	setI(&g.TensorUnits, fc.TensorUnits)
	setI(&g.L1Size, fc.L1Size)
	setI(&g.L1Assoc, fc.L1Assoc)
	setI(&g.L2Size, fc.L2Size)
	setI(&g.L2Assoc, fc.L2Assoc)
	setI(&g.L2Banks, fc.L2Banks)
	setI(&g.LineSize, fc.LineSize)
	setI(&g.L1MSHRs, fc.L1MSHRs)
	setI(&g.L2MSHRs, fc.L2MSHRs)
	setI(&g.L1Latency, fc.L1Latency)
	setI(&g.L2Latency, fc.L2Latency)
	setI(&g.DRAMLatency, fc.DRAMLatency)
	setI(&g.CoreClockMHz, fc.CoreClockMHz)
	if fc.MemBandwidthGBps != nil {
		g.MemBandwidthGBps = *fc.MemBandwidthGBps
	}
	setI(&g.MemChannels, fc.MemChannels)
	setS(&g.MemTech, fc.MemTech)
	if err := g.Validate(); err != nil {
		return GPU{}, err
	}
	return g, nil
}
