package isa

import "testing"

func TestEveryOpcodeHasUnitAndName(t *testing.T) {
	for op := Opcode(0); op < opcodeCount; op++ {
		if op == OpNOP {
			continue
		}
		if UnitOf(op) == UnitNone {
			t.Errorf("%v has no execution unit", op)
		}
		if Latency(op) <= 0 {
			t.Errorf("%v has non-positive latency", op)
		}
		if InitiationInterval(op) <= 0 {
			t.Errorf("%v has non-positive initiation interval", op)
		}
		if op.String() == "" || op.String()[0] == 'O' && op.String()[1] == 'p' {
			t.Errorf("%d has no name", uint8(op))
		}
	}
}

func TestMemoryClassification(t *testing.T) {
	loads := []Opcode{OpLDG, OpLDS, OpLDC, OpTEX}
	for _, op := range loads {
		if !IsMemory(op) || !IsLoad(op) || IsStore(op) {
			t.Errorf("%v misclassified as load", op)
		}
	}
	stores := []Opcode{OpSTG, OpSTS}
	for _, op := range stores {
		if !IsMemory(op) || IsLoad(op) || !IsStore(op) {
			t.Errorf("%v misclassified as store", op)
		}
	}
	alu := []Opcode{OpFADD, OpFFMA, OpIMAD, OpMUFURSQ, OpHMMA, OpMOV}
	for _, op := range alu {
		if IsMemory(op) || IsLoad(op) || IsStore(op) {
			t.Errorf("%v misclassified as memory", op)
		}
	}
}

func TestSpaces(t *testing.T) {
	cases := map[Opcode]Space{
		OpLDG:  SpaceGlobal,
		OpSTG:  SpaceGlobal,
		OpLDS:  SpaceShared,
		OpSTS:  SpaceShared,
		OpLDC:  SpaceConst,
		OpTEX:  SpaceTexture,
		OpFADD: SpaceNone,
	}
	for op, want := range cases {
		if got := SpaceOf(op); got != want {
			t.Errorf("SpaceOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestUnits(t *testing.T) {
	cases := map[Opcode]Unit{
		OpFADD:    UnitFP,
		OpFFMA:    UnitFP,
		OpIMAD:    UnitINT,
		OpMUFUSIN: UnitSFU,
		OpMUFURCP: UnitSFU,
		OpHMMA:    UnitTensor,
		OpLDG:     UnitLDST,
		OpTEX:     UnitLDST,
		OpEXIT:    UnitCTRL,
		OpBAR:     UnitCTRL,
	}
	for op, want := range cases {
		if got := UnitOf(op); got != want {
			t.Errorf("UnitOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestSFULatencyExceedsALU(t *testing.T) {
	if Latency(OpMUFUSIN) <= Latency(OpFADD) {
		t.Error("SFU ops should have higher latency than FP32 ALU ops")
	}
	if InitiationInterval(OpMUFUSIN) <= InitiationInterval(OpFADD) {
		t.Error("SFU throughput should be lower than FP32")
	}
}

func TestStringFallbacks(t *testing.T) {
	if Opcode(200).String() == "" {
		t.Error("unknown opcode String empty")
	}
	if Unit(99).String() == "" {
		t.Error("unknown unit String empty")
	}
	if Space(99).String() == "" {
		t.Error("unknown space String empty")
	}
}
