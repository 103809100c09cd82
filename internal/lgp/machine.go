package lgp

import "math"

// regClamp bounds register magnitudes so that runaway multiply chains
// cannot overflow to ±Inf during evolution.
const regClamp = 1e6

// decodedInst is one pre-decoded instruction: field extraction (shifts
// and modular reductions) is done once per program instead of once per
// instruction per step, which matters because fitness evaluation executes
// the same program over every word of every training sequence.
type decodedInst struct {
	mode   uint8
	opcode uint8
	dst    uint16
	src    uint16 // register or input-port index, already reduced
	konst  float64
}

// Machine executes linear programs over a general-purpose register file.
// In recurrent mode (the R of RLGP) registers persist across sequential
// pattern presentations and are only reset between documents.
//
// A Machine caches the decoded form of the most recently executed
// program, keyed by the *Program pointer, so running the same program
// over many sequences decodes it once. Callers that mutate a Program's
// Code in place must run it through a fresh *Program (Clone); the
// evolutionary loop only mutates freshly cloned children, so it never
// hits this case. A Machine is not safe for concurrent use — use one
// Machine per goroutine.
type Machine struct {
	regs []float64

	prog    []decodedInst
	progSrc *Program // program the decode cache was built from
	progLen int      // len(progSrc.Code) at decode time
	progNIn int      // input width the decode was specialised for
}

// NewMachine returns a machine with n general-purpose registers.
func NewMachine(n int) *Machine {
	return &Machine{regs: make([]float64, n)}
}

// Reset zeroes every register (called at document boundaries).
func (m *Machine) Reset() {
	for i := range m.regs {
		m.regs[i] = 0
	}
}

// Registers exposes the register file (aliased, for inspection).
func (m *Machine) Registers() []float64 { return m.regs }

// Output returns the predefined output register R0.
func (m *Machine) Output() float64 { return m.regs[0] }

// compile decodes p for input width nIn into the machine's scratch
// buffer, reusing a previous decode when the same program and width are
// run again.
func (m *Machine) compile(p *Program, nIn int) {
	if m.progSrc == p && m.progNIn == nIn && m.progLen == len(p.Code) {
		return
	}
	nRegs := len(m.regs)
	if cap(m.prog) < len(p.Code) {
		m.prog = make([]decodedInst, len(p.Code))
	}
	m.prog = m.prog[:len(p.Code)]
	for i, in := range p.Code {
		d := decodedInst{
			mode:   uint8(in.Mode()),
			opcode: uint8(in.Opcode()),
			dst:    uint16(in.Dst(nRegs)),
		}
		switch d.mode {
		case ModeExternal:
			if nIn > 0 {
				d.src = uint16(in.SrcInput(nIn))
			}
		case ModeConstant:
			d.konst = in.Const()
		default:
			d.src = uint16(in.SrcReg(nRegs))
		}
		m.prog[i] = d
	}
	m.progSrc, m.progLen, m.progNIn = p, len(p.Code), nIn
}

// stepCompiled executes the decoded program once against one input
// vector, mutating the register file. Division is protected: a near-zero
// denominator leaves the destination unchanged. Register values are
// clamped to ±1e6 and NaN is flushed to zero, keeping evolution numerics
// finite.
//
//tdlint:hotpath
func (m *Machine) stepCompiled(inputs []float64) {
	regs := m.regs
	for _, in := range m.prog {
		var operand float64
		switch in.mode {
		case ModeExternal:
			if s := int(in.src); s < len(inputs) {
				operand = inputs[s]
			}
		case ModeConstant:
			operand = in.konst
		default:
			operand = regs[in.src]
		}
		v := regs[in.dst]
		switch in.opcode {
		case OpAdd:
			v += operand
		case OpSub:
			v -= operand
		case OpMul:
			v *= operand
		case OpDiv:
			if math.Abs(operand) > 1e-9 {
				v /= operand
			}
		}
		if math.IsNaN(v) {
			v = 0
		} else if v > regClamp {
			v = regClamp
		} else if v < -regClamp {
			v = -regClamp
		}
		regs[in.dst] = v
	}
}

// Step executes the whole program once against one input vector,
// mutating the register file (see stepCompiled for the arithmetic
// contract).
func (m *Machine) Step(p *Program, inputs []float64) {
	m.compile(p, len(inputs))
	m.stepCompiled(inputs)
}

// Squash maps the raw output register onto [-1, 1] (Equation 4):
//
//	GPoutNew = 2/(1+e^-GPout) - 1
func Squash(out float64) float64 {
	return 2/(1+math.Exp(-out)) - 1
}

// RunSequence resets the machine, presents each input vector of the
// sequence in order (recurrent mode: registers persist between steps)
// and returns the squashed output after the last step. An empty sequence
// yields Squash(0) = 0 without touching the decode cache, so a document
// with no member words does not evict the decode its neighbours share.
func (m *Machine) RunSequence(p *Program, seq [][]float64) float64 {
	m.Reset()
	if len(seq) == 0 {
		return Squash(m.Output())
	}
	m.compile(p, len(seq[0]))
	for _, in := range seq {
		if len(in) != m.progNIn {
			m.compile(p, len(in))
		}
		m.stepCompiled(in)
	}
	return Squash(m.Output())
}

// RunSequenceNonRecurrent is the ablation variant: registers are reset
// before every pattern, discarding temporal state. The prediction is the
// squashed output after the final pattern.
func (m *Machine) RunSequenceNonRecurrent(p *Program, seq [][]float64) float64 {
	m.Reset()
	if len(seq) == 0 {
		return Squash(m.Output())
	}
	m.compile(p, len(seq[0]))
	for _, in := range seq {
		m.Reset()
		if len(in) != m.progNIn {
			m.compile(p, len(in))
		}
		m.stepCompiled(in)
	}
	return Squash(m.Output())
}

// Trace resets the machine and returns the squashed output register
// value after each input of the sequence — the word-tracking signal of
// Figures 5 and 6.
func (m *Machine) Trace(p *Program, seq [][]float64) []float64 {
	m.Reset()
	out := make([]float64, len(seq))
	if len(seq) == 0 {
		return out
	}
	m.compile(p, len(seq[0]))
	for i, in := range seq {
		if len(in) != m.progNIn {
			m.compile(p, len(in))
		}
		m.stepCompiled(in)
		out[i] = Squash(m.Output())
	}
	return out
}
