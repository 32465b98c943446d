package sim

import (
	"fmt"

	"zoomie/internal/rtl"
)

// The compiled engine lowers every combinational expression of a flat
// design — assign right-hand sides, register next/enable/reset functions
// and memory write-port address/data/enable functions — into one flat
// bytecode stream executed by a small stack machine. Signal reads become
// direct loads from the simulator's value array through pre-resolved slot
// indices and memory reads become direct indexing of the backing word
// slices, so the hot loop has no interface dispatch, no map lookups and
// no AST recursion. Width truncation is pre-baked into the instructions
// as immediate masks.

// opcode is a bytecode operation of the compiled evaluation engine.
type opcode uint8

const (
	opConst   opcode = iota // push imm
	opLoad                  // push vals[a]
	opNot                   // tos = ^tos & imm
	opAnd                   // pop b; tos &= b
	opOr                    // pop b; tos |= b
	opXor                   // pop b; tos ^= b
	opAdd                   // pop b; tos = (tos + b) & imm
	opSub                   // pop b; tos = (tos - b) & imm
	opMul                   // pop b; tos = (tos * b) & imm
	opEq                    // pop b; tos = tos == b
	opNe                    // pop b; tos = tos != b
	opLt                    // pop b; tos = tos < b
	opLe                    // pop b; tos = tos <= b
	opShl                   // tos = (tos << a) & imm
	opShr                   // tos = tos >> a
	opMux                   // pop b, a; tos = tos != 0 ? a : b
	opSlice                 // tos = (tos >> a) & imm
	opConcat                // pop lo; tos = (tos << a | lo) & imm
	opRedOr                 // tos = tos != 0
	opRedAnd                // tos = tos == imm
	opMemRead               // d := mems[a]; tos = d[tos % len(d)] & imm
)

// instr is one bytecode instruction. a carries a value-array slot index
// (opLoad), a shift amount (opShl/opShr/opSlice/opConcat) or a memory id
// (opMemRead); imm carries a constant or a width mask.
type instr struct {
	op  opcode
	a   int32
	imm uint64
}

// xref addresses one compiled expression as a [start,end) window of the
// shared code array.
type xref struct{ start, end int32 }

// cAssign is a compiled combinational assignment: evaluate x, store to
// value-array slot dst.
type cAssign struct {
	x   xref
	dst int32
}

// cReg is a compiled register update function.
type cReg struct {
	next, enable, reset xref
	hasEnable, hasReset bool
	dst                 int32
	init                uint64
}

// cMemWrite is a compiled synchronous memory write port.
type cMemWrite struct {
	addr, data, enable xref
	mem                int32
	depth              uint64
}

// cMemUpdate is a staged memory write of the compiled engine.
type cMemUpdate struct {
	mem  int32
	addr int32
	val  uint64
}

// compiled is the bytecode form of a flat design.
type compiled struct {
	code    []instr
	assigns []cAssign         // in levelized order
	byLevel [][]int32         // level -> indices into assigns
	regs    map[string][]cReg // clock domain -> registers
	memw    map[string][]cMemWrite
	memData [][]uint64 // memory id -> backing words (aliases Simulator.memData)
	stack   []uint64   // scratch stack, as deep as the deepest expression
}

type compiler struct {
	sigIndex map[*rtl.Signal]int
	memIndex map[*rtl.Memory]int
	code     []instr
	maxStack int
}

func (c *compiler) emit(op opcode, a int32, imm uint64) {
	c.code = append(c.code, instr{op: op, a: a, imm: imm})
}

// expr lowers one expression tree and returns its code window.
func (c *compiler) expr(e rtl.Expr) xref {
	start := int32(len(c.code))
	c.lower(e)
	if d := e.StackDepth(); d > c.maxStack {
		c.maxStack = d
	}
	return xref{start: start, end: int32(len(c.code))}
}

// lower emits code for e in post-order. The emitted semantics mirror
// rtl.Eval exactly; the differential tests in diff_test.go hold the two
// engines to bit-identical behaviour.
func (c *compiler) lower(e rtl.Expr) {
	if want := rtl.OpArity(e.Op); want < 0 || len(e.Args) != want {
		panic(fmt.Sprintf("sim: compile: op %v with %d operands (want %d)", e.Op, len(e.Args), want))
	}
	switch e.Op {
	case rtl.OpConst:
		c.emit(opConst, 0, e.Val)
	case rtl.OpSig:
		c.emit(opLoad, int32(c.sigIndex[e.Sig]), 0)
	case rtl.OpNot:
		c.lower(e.Args[0])
		c.emit(opNot, 0, rtl.Mask(e.Width))
	case rtl.OpAnd, rtl.OpOr, rtl.OpXor:
		// Operands are width-matched and already truncated, so the result
		// needs no mask.
		c.lower(e.Args[0])
		c.lower(e.Args[1])
		c.emit(map[rtl.Op]opcode{rtl.OpAnd: opAnd, rtl.OpOr: opOr, rtl.OpXor: opXor}[e.Op], 0, 0)
	case rtl.OpAdd, rtl.OpSub, rtl.OpMul:
		c.lower(e.Args[0])
		c.lower(e.Args[1])
		c.emit(map[rtl.Op]opcode{rtl.OpAdd: opAdd, rtl.OpSub: opSub, rtl.OpMul: opMul}[e.Op],
			0, rtl.Mask(e.Width))
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe:
		c.lower(e.Args[0])
		c.lower(e.Args[1])
		c.emit(map[rtl.Op]opcode{rtl.OpEq: opEq, rtl.OpNe: opNe, rtl.OpLt: opLt, rtl.OpLe: opLe}[e.Op], 0, 0)
	case rtl.OpShl:
		if e.Lo >= e.Width {
			c.emit(opConst, 0, 0)
			return
		}
		c.lower(e.Args[0])
		c.emit(opShl, int32(e.Lo), rtl.Mask(e.Width))
	case rtl.OpShr:
		if e.Lo >= e.Width {
			c.emit(opConst, 0, 0)
			return
		}
		c.lower(e.Args[0])
		c.emit(opShr, int32(e.Lo), 0)
	case rtl.OpMux:
		// Eager on both arms; expressions are pure, so this is
		// observationally identical to the interpreter's lazy select.
		c.lower(e.Args[0])
		c.lower(e.Args[1])
		c.lower(e.Args[2])
		c.emit(opMux, 0, 0)
	case rtl.OpSlice:
		c.lower(e.Args[0])
		c.emit(opSlice, int32(e.Lo), rtl.Mask(e.Width))
	case rtl.OpConcat:
		c.lower(e.Args[0])
		c.lower(e.Args[1])
		c.emit(opConcat, int32(e.Args[1].Width), rtl.Mask(e.Width))
	case rtl.OpRedOr:
		c.lower(e.Args[0])
		c.emit(opRedOr, 0, 0)
	case rtl.OpRedAnd:
		c.lower(e.Args[0])
		c.emit(opRedAnd, 0, rtl.Mask(e.Args[0].Width))
	case rtl.OpMemRead:
		c.lower(e.Args[0])
		c.emit(opMemRead, int32(c.memIndex[e.Mem]), rtl.Mask(e.Width))
	default:
		panic(fmt.Sprintf("sim: compile: unknown op %v", e.Op))
	}
}

// compileProgram lowers the whole flat design. order and level come from
// levelize: order is the topological evaluation order of f.Assigns and
// level[i] the dependency depth of f.Assigns[i].
func compileProgram(f *rtl.Flat, sigIndex map[*rtl.Signal]int,
	memData [][]uint64, order, level []int) *compiled {

	c := &compiler{
		sigIndex: sigIndex,
		memIndex: make(map[*rtl.Memory]int, len(f.Memories)),
	}
	cp := &compiled{
		regs:    make(map[string][]cReg),
		memw:    make(map[string][]cMemWrite),
		memData: memData,
	}
	for i, m := range f.Memories {
		c.memIndex[m] = i
	}

	numLevels := 0
	for _, oi := range order {
		if level[oi]+1 > numLevels {
			numLevels = level[oi] + 1
		}
	}
	cp.byLevel = make([][]int32, numLevels)
	cp.assigns = make([]cAssign, 0, len(order))
	for k, oi := range order {
		a := f.Assigns[oi]
		cp.assigns = append(cp.assigns, cAssign{
			x:   c.expr(a.Src),
			dst: int32(sigIndex[a.Dst]),
		})
		cp.byLevel[level[oi]] = append(cp.byLevel[level[oi]], int32(k))
	}

	for _, r := range f.Registers {
		cr := cReg{
			next: c.expr(r.Next),
			dst:  int32(sigIndex[r.Sig]),
			init: r.Init,
		}
		if r.Enable.Width != 0 {
			cr.enable = c.expr(r.Enable)
			cr.hasEnable = true
		}
		if r.Reset.Width != 0 {
			cr.reset = c.expr(r.Reset)
			cr.hasReset = true
		}
		cp.regs[r.Clock] = append(cp.regs[r.Clock], cr)
	}
	for _, m := range f.Memories {
		for _, w := range m.Writes {
			cp.memw[w.Clock] = append(cp.memw[w.Clock], cMemWrite{
				addr:   c.expr(w.Addr),
				data:   c.expr(w.Data),
				enable: c.expr(w.Enable),
				mem:    int32(c.memIndex[m]),
				depth:  uint64(m.Depth),
			})
		}
	}

	cp.code = c.code
	cp.stack = make([]uint64, max(c.maxStack, 1))
	return cp
}

// runCode executes one compiled expression window and returns its value.
// stack must have room for the program's maxStack operands; vals is the
// simulator's signal value array and mems the memory backing slices.
func runCode(code []instr, stack, vals []uint64, mems [][]uint64) uint64 {
	sp := 0
	for i := range code {
		ins := code[i]
		switch ins.op {
		case opConst:
			stack[sp] = ins.imm
			sp++
		case opLoad:
			stack[sp] = vals[ins.a]
			sp++
		case opNot:
			stack[sp-1] = ^stack[sp-1] & ins.imm
		case opAnd:
			sp--
			stack[sp-1] &= stack[sp]
		case opOr:
			sp--
			stack[sp-1] |= stack[sp]
		case opXor:
			sp--
			stack[sp-1] ^= stack[sp]
		case opAdd:
			sp--
			stack[sp-1] = (stack[sp-1] + stack[sp]) & ins.imm
		case opSub:
			sp--
			stack[sp-1] = (stack[sp-1] - stack[sp]) & ins.imm
		case opMul:
			sp--
			stack[sp-1] = (stack[sp-1] * stack[sp]) & ins.imm
		case opEq:
			sp--
			stack[sp-1] = b2u(stack[sp-1] == stack[sp])
		case opNe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != stack[sp])
		case opLt:
			sp--
			stack[sp-1] = b2u(stack[sp-1] < stack[sp])
		case opLe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] <= stack[sp])
		case opShl:
			stack[sp-1] = (stack[sp-1] << uint(ins.a)) & ins.imm
		case opShr:
			stack[sp-1] >>= uint(ins.a)
		case opMux:
			sp -= 2
			if stack[sp-1] != 0 {
				stack[sp-1] = stack[sp]
			} else {
				stack[sp-1] = stack[sp+1]
			}
		case opSlice:
			stack[sp-1] = (stack[sp-1] >> uint(ins.a)) & ins.imm
		case opConcat:
			sp--
			stack[sp-1] = (stack[sp-1]<<uint(ins.a) | stack[sp]) & ins.imm
		case opRedOr:
			stack[sp-1] = b2u(stack[sp-1] != 0)
		case opRedAnd:
			stack[sp-1] = b2u(stack[sp-1] == ins.imm)
		case opMemRead:
			d := mems[ins.a]
			stack[sp-1] = d[stack[sp-1]%uint64(len(d))] & ins.imm
		}
	}
	return stack[sp-1]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
