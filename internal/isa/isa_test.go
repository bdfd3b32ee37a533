package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func validProgram() Program {
	return Program{
		Body: []Instruction{
			{Op: OpLoadGlobal, Dst: 1, Mem: MemSpec{FootprintBytes: 4096, CoalescedLines: 2}},
			{Op: OpFAlu, Dst: 2, SrcA: 1, SrcB: 2},
			{Op: OpStoreGlobal, SrcA: 2, Mem: MemSpec{FootprintBytes: 4096, CoalescedLines: 1}},
			{Op: OpBranch, SrcA: 2},
		},
		Iterations: 10,
	}
}

func TestProgramValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestProgramValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Program)
	}{
		{"empty body", func(p *Program) { p.Body = nil }},
		{"zero iterations", func(p *Program) { p.Iterations = 0 }},
		{"negative iterations", func(p *Program) { p.Iterations = -1 }},
		{"register out of range", func(p *Program) { p.Body[1].Dst = MaxRegs }},
		{"zero footprint", func(p *Program) { p.Body[0].Mem.FootprintBytes = 0 }},
		{"zero coalesced lines", func(p *Program) { p.Body[0].Mem.CoalescedLines = 0 }},
		{"too many coalesced lines", func(p *Program) { p.Body[0].Mem.CoalescedLines = 33 }},
		{"invalid op", func(p *Program) { p.Body[0].Op = Op(200) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validProgram()
			tc.mut(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestProgramLen(t *testing.T) {
	p := validProgram()
	if got, want := p.Len(), 4*10; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestKernelValidate(t *testing.T) {
	k := Kernel{Name: "k", WarpsPerCluster: 4, Programs: []Program{validProgram()}}
	if err := k.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	for name, mut := range map[string]func(*Kernel){
		"empty name":  func(k *Kernel) { k.Name = "" },
		"no warps":    func(k *Kernel) { k.WarpsPerCluster = 0 },
		"no programs": func(k *Kernel) { k.Programs = nil },
		"bad program": func(k *Kernel) { k.Programs[0].Iterations = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			kk := Kernel{Name: "k", WarpsPerCluster: 4, Programs: []Program{validProgram()}}
			mut(&kk)
			if err := kk.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestKernelTotalInstructions(t *testing.T) {
	p1 := Program{Body: []Instruction{{Op: OpIAlu, Dst: 1}}, Iterations: 5}
	p2 := Program{Body: []Instruction{{Op: OpIAlu, Dst: 1}, {Op: OpFAlu, Dst: 2}}, Iterations: 3}
	k := Kernel{Name: "k", WarpsPerCluster: 3, Programs: []Program{p1, p2}}
	// Warp 0 -> p1 (5), warp 1 -> p2 (6), warp 2 -> p1 (5).
	if got, want := k.TotalInstructions(), int64(16); got != want {
		t.Fatalf("TotalInstructions = %d, want %d", got, want)
	}
}

func TestOpClassification(t *testing.T) {
	if !OpLoadGlobal.IsMemory() || !OpStoreGlobal.IsMemory() {
		t.Fatal("global memory ops must be memory")
	}
	if OpLoadShared.IsMemory() {
		t.Fatal("shared load must not traverse the global hierarchy")
	}
}

func TestOpStrings(t *testing.T) {
	seen := map[string]bool{}
	for op := 0; op < NumOps; op++ {
		s := Op(op).String()
		if s == "" || seen[s] {
			t.Fatalf("op %d has empty or duplicate name %q", op, s)
		}
		seen[s] = true
	}
	if Op(200).String() == "" {
		t.Fatal("out-of-range op must still print")
	}
}

// TestValidateProperty checks Validate accepts arbitrary structurally
// valid programs.
func TestValidateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(nBody, iters uint8, seed int64) bool {
		n := int(nBody%16) + 1
		r := rand.New(rand.NewSource(seed))
		body := make([]Instruction, n)
		for i := range body {
			op := Op(r.Intn(NumOps))
			ins := Instruction{Op: op, Dst: Reg(r.Intn(MaxRegs)), SrcA: Reg(r.Intn(MaxRegs))}
			if op.IsMemory() {
				ins.Mem = MemSpec{
					FootprintBytes: uint64(r.Intn(1<<20) + 64),
					CoalescedLines: r.Intn(32) + 1,
					Pattern:        AccessPattern(r.Intn(3)),
				}
			}
			body[i] = ins
		}
		p := Program{Body: body, Iterations: int(iters%100) + 1}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
