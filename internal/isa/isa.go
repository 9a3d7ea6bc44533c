// Package isa defines the SASS-like instruction set consumed by the timing
// model. CRISP replays traces of these instructions: the functional front
// ends (the graphics pipeline and the compute-kernel builders) lower their
// work to isa instructions, and the cycle-level simulator executes them
// against the SM, cache, and DRAM models.
//
// The set mirrors the subset of NVIDIA SASS that matters for timing:
// arithmetic in several latency classes, special-function ops, tensor ops,
// and memory operations in each address space. Exact encodings are
// irrelevant for a trace-driven simulator; what matters is the opcode's
// execution-unit class, its latency, its register dependencies, and (for
// memory ops) the per-lane addresses carried alongside the instruction in
// the trace.
package isa

import "fmt"

// Opcode identifies one machine operation.
type Opcode uint8

// Opcodes. Names follow SASS conventions where a close analog exists.
const (
	OpNOP Opcode = iota

	// Single-precision floating point (FP32 unit).
	OpFADD
	OpFMUL
	OpFFMA
	OpFMNMX // min/max
	OpFSET  // compare, writes predicate-like register
	OpF2I
	OpI2F

	// Integer (INT unit).
	OpIADD
	OpIMAD
	OpISETP
	OpSHL
	OpSHR
	OpLOP3 // bitwise logic
	OpMOV
	OpSEL // predicated select

	// Special function unit (SFU / MUFU.*).
	OpMUFURCP // reciprocal
	OpMUFURSQ // reciprocal square root
	OpMUFUSIN
	OpMUFUCOS
	OpMUFUEX2
	OpMUFULG2

	// Tensor core.
	OpHMMA

	// Memory.
	OpLDG // load global
	OpSTG // store global
	OpLDS // load shared
	OpSTS // store shared
	OpLDC // load constant
	OpTEX // texture sample (issued to unified L1 data cache in CRISP)

	// Control.
	OpBRA
	OpBAR // barrier (CTA-wide)
	OpEXIT

	opcodeCount
)

var opcodeNames = [...]string{
	OpNOP:     "NOP",
	OpFADD:    "FADD",
	OpFMUL:    "FMUL",
	OpFFMA:    "FFMA",
	OpFMNMX:   "FMNMX",
	OpFSET:    "FSET",
	OpF2I:     "F2I",
	OpI2F:     "I2F",
	OpIADD:    "IADD",
	OpIMAD:    "IMAD",
	OpISETP:   "ISETP",
	OpSHL:     "SHL",
	OpSHR:     "SHR",
	OpLOP3:    "LOP3",
	OpMOV:     "MOV",
	OpSEL:     "SEL",
	OpMUFURCP: "MUFU.RCP",
	OpMUFURSQ: "MUFU.RSQ",
	OpMUFUSIN: "MUFU.SIN",
	OpMUFUCOS: "MUFU.COS",
	OpMUFUEX2: "MUFU.EX2",
	OpMUFULG2: "MUFU.LG2",
	OpHMMA:    "HMMA",
	OpLDG:     "LDG",
	OpSTG:     "STG",
	OpLDS:     "LDS",
	OpSTS:     "STS",
	OpLDC:     "LDC",
	OpTEX:     "TEX",
	OpBRA:     "BRA",
	OpBAR:     "BAR",
	OpEXIT:    "EXIT",
}

func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(op))
}

// Unit is the execution-pipeline class an opcode issues to.
type Unit uint8

const (
	UnitNone Unit = iota
	UnitFP        // FP32 ALU
	UnitINT       // integer ALU
	UnitSFU       // special function
	UnitTensor
	UnitLDST // memory pipeline
	UnitCTRL // branch/barrier/exit — handled by the scheduler
	unitCount
)

var unitNames = [...]string{
	UnitNone:   "none",
	UnitFP:     "fp",
	UnitINT:    "int",
	UnitSFU:    "sfu",
	UnitTensor: "tensor",
	UnitLDST:   "ldst",
	UnitCTRL:   "ctrl",
}

func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// UnitCount is the number of distinct execution-unit classes.
const UnitCount = int(unitCount)

// Space is the memory space a memory opcode addresses.
type Space uint8

const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceShared
	SpaceConst
	SpaceTexture // global memory carrying texture data (unified L1 path)
)

var spaceNames = [...]string{
	SpaceNone:    "none",
	SpaceGlobal:  "global",
	SpaceShared:  "shared",
	SpaceConst:   "const",
	SpaceTexture: "texture",
}

func (s Space) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("Space(%d)", uint8(s))
}

type opInfo struct {
	unit    Unit
	latency uint8 // result latency in core cycles
	initInt uint8 // initiation interval on the unit
	space   Space
}

// Latencies follow Accel-Sim's Ampere model in spirit: 4-cycle ALU
// dependent-issue latency, longer SFU and tensor latencies; memory latency
// is determined by the memory system, so memory ops carry only the pipeline
// issue cost here.
var opTable = [opcodeCount]opInfo{
	OpNOP:     {UnitINT, 1, 1, SpaceNone},
	OpFADD:    {UnitFP, 4, 1, SpaceNone},
	OpFMUL:    {UnitFP, 4, 1, SpaceNone},
	OpFFMA:    {UnitFP, 4, 1, SpaceNone},
	OpFMNMX:   {UnitFP, 4, 1, SpaceNone},
	OpFSET:    {UnitFP, 4, 1, SpaceNone},
	OpF2I:     {UnitFP, 4, 1, SpaceNone},
	OpI2F:     {UnitFP, 4, 1, SpaceNone},
	OpIADD:    {UnitINT, 4, 1, SpaceNone},
	OpIMAD:    {UnitINT, 5, 1, SpaceNone},
	OpISETP:   {UnitINT, 4, 1, SpaceNone},
	OpSHL:     {UnitINT, 4, 1, SpaceNone},
	OpSHR:     {UnitINT, 4, 1, SpaceNone},
	OpLOP3:    {UnitINT, 4, 1, SpaceNone},
	OpMOV:     {UnitINT, 2, 1, SpaceNone},
	OpSEL:     {UnitINT, 4, 1, SpaceNone},
	OpMUFURCP: {UnitSFU, 21, 4, SpaceNone},
	OpMUFURSQ: {UnitSFU, 21, 4, SpaceNone},
	OpMUFUSIN: {UnitSFU, 21, 4, SpaceNone},
	OpMUFUCOS: {UnitSFU, 21, 4, SpaceNone},
	OpMUFUEX2: {UnitSFU, 21, 4, SpaceNone},
	OpMUFULG2: {UnitSFU, 21, 4, SpaceNone},
	OpHMMA:    {UnitTensor, 16, 8, SpaceNone},
	OpLDG:     {UnitLDST, 4, 1, SpaceGlobal},
	OpSTG:     {UnitLDST, 4, 1, SpaceGlobal},
	OpLDS:     {UnitLDST, 22, 1, SpaceShared},
	OpSTS:     {UnitLDST, 4, 1, SpaceShared},
	OpLDC:     {UnitLDST, 8, 1, SpaceConst},
	OpTEX:     {UnitLDST, 4, 1, SpaceTexture},
	OpBRA:     {UnitCTRL, 2, 1, SpaceNone},
	OpBAR:     {UnitCTRL, 2, 1, SpaceNone},
	OpEXIT:    {UnitCTRL, 1, 1, SpaceNone},
}

// UnitOf reports the execution-unit class op issues to.
func UnitOf(op Opcode) Unit {
	if int(op) < len(opTable) {
		return opTable[op].unit
	}
	return UnitNone
}

// Latency reports the register-result latency of op in core cycles.
// For memory ops this is only the address-generation pipeline depth;
// data-return latency comes from the memory system model.
func Latency(op Opcode) int {
	if int(op) < len(opTable) {
		return int(opTable[op].latency)
	}
	return 1
}

// InitiationInterval reports how many cycles the issuing unit is busy
// before it can accept another instruction.
func InitiationInterval(op Opcode) int {
	if int(op) < len(opTable) {
		return int(opTable[op].initInt)
	}
	return 1
}

// SpaceOf reports the memory space of op, or SpaceNone for non-memory ops.
func SpaceOf(op Opcode) Space {
	if int(op) < len(opTable) {
		return opTable[op].space
	}
	return SpaceNone
}

// IsMemory reports whether op accesses memory.
func IsMemory(op Opcode) bool { return SpaceOf(op) != SpaceNone }

// IsLoad reports whether op reads memory into a register.
func IsLoad(op Opcode) bool {
	switch op {
	case OpLDG, OpLDS, OpLDC, OpTEX:
		return true
	}
	return false
}

// IsStore reports whether op writes memory.
func IsStore(op Opcode) bool { return op == OpSTG || op == OpSTS }

// Reg is a virtual register number local to one warp's trace.
// Register 255 (RegNone) means "no operand".
type Reg = uint8

// RegNone marks an absent register operand.
const RegNone Reg = 255

// WarpSize is the number of lanes in a warp.
const WarpSize = 32

// OpcodeCount is the number of defined opcodes. Serialized traces embed
// it as a format fingerprint: inserting an opcode renumbers the ISA, and
// a trace written under a different numbering must not be replayed.
const OpcodeCount = int(opcodeCount)
