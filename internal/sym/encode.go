package sym

import (
	"encoding/binary"
	"fmt"
)

// Portable node encoding. Hash-consing gives pointer identity within
// one Builder, but pointer values are meaningless across processes;
// EncodeExprs/DecodeExprs carry expression DAGs between builders (engine
// snapshots use them for witness variable tables).

// opArity returns an operator's child count, or -1 for unknown ops.
func opArity(op Op) int {
	switch op {
	case OpConst, OpVar:
		return 0
	case OpNot, OpExtract:
		return 1
	case OpIte:
		return 3
	case OpAnd, OpOr, OpXor, OpAdd, OpSub, OpShl, OpLshr, OpConcat, OpEq, OpUlt:
		return 2
	default:
		return -1
	}
}

// maxDecodeNodes bounds DecodeExprs against hostile length prefixes.
const maxDecodeNodes = 1 << 20

// maxVarNameLen bounds variable names in the wire format.
const maxVarNameLen = 4096

// EncodeExprs serializes the DAG reachable from roots into a portable
// byte form: nodes in children-first topological order, each child
// reference an index into the already-emitted prefix. Shared subterms
// are emitted once, so the encoding preserves the DAG shape. Nil roots
// are rejected.
func EncodeExprs(roots []*Expr) ([]byte, error) {
	var order []*Expr
	index := make(map[*Expr]uint64)
	var visit func(e *Expr)
	visit = func(e *Expr) {
		if _, ok := index[e]; ok {
			return
		}
		for _, ch := range [...]*Expr{e.A, e.B, e.C} {
			if ch != nil {
				visit(ch)
			}
		}
		index[e] = uint64(len(order))
		order = append(order, e)
	}
	for _, r := range roots {
		if r == nil {
			return nil, fmt.Errorf("sym: cannot encode nil expression")
		}
		visit(r)
	}
	buf := binary.AppendUvarint(nil, uint64(len(order)))
	for _, e := range order {
		buf = append(buf, byte(e.Op))
		buf = binary.AppendUvarint(buf, uint64(e.Width))
		switch e.Op {
		case OpConst:
			buf = binary.AppendUvarint(buf, e.Val.Hi)
			buf = binary.AppendUvarint(buf, e.Val.Lo)
		case OpVar:
			buf = append(buf, byte(e.Class))
			buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
			buf = append(buf, e.Name...)
		case OpExtract:
			buf = binary.AppendUvarint(buf, uint64(e.Hi))
			buf = binary.AppendUvarint(buf, uint64(e.Lo))
		}
		for _, ch := range [...]*Expr{e.A, e.B, e.C} {
			if ch != nil {
				buf = binary.AppendUvarint(buf, index[ch])
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(roots)))
	for _, r := range roots {
		buf = binary.AppendUvarint(buf, index[r])
	}
	return buf, nil
}

// exprDecoder walks an encoded buffer with sticky error state.
type exprDecoder struct {
	buf []byte
	err error
}

func (d *exprDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sym: decode: "+format, args...)
	}
}

func (d *exprDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *exprDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("truncated input")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// DecodeExprs rebuilds an EncodeExprs buffer inside the given builder
// and returns the root nodes. Nodes are interned *raw* — exactly the
// structure on the wire, no re-simplification — so a decoded node's
// structure (and print form) matches the encoded one bit-for-bit. Every
// structural invariant the builder's smart constructors would have
// enforced is re-validated here; malformed input yields an error, never
// a panic (FuzzSnapshot holds the loader to that).
func DecodeExprs(b *Builder, data []byte) ([]*Expr, error) {
	d := &exprDecoder{buf: data}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > maxDecodeNodes {
		return nil, fmt.Errorf("sym: decode: node count %d exceeds limit", n)
	}
	nodes := make([]*Expr, 0, n)
	child := func() *Expr {
		i := d.uvarint()
		if d.err != nil {
			return nil
		}
		if i >= uint64(len(nodes)) {
			d.fail("child reference %d out of range (have %d nodes)", i, len(nodes))
			return nil
		}
		return nodes[i]
	}
	for len(nodes) < int(n) {
		op := Op(d.byte())
		width := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		arity := opArity(op)
		if arity < 0 {
			return nil, fmt.Errorf("sym: decode: unknown operator %d", op)
		}
		if width < 1 || width > MaxWidth {
			return nil, fmt.Errorf("sym: decode: invalid width %d", width)
		}
		w := uint16(width)
		k := exprKey{op: op, width: w}
		switch op {
		case OpConst:
			hi, lo := d.uvarint(), d.uvarint()
			if d.err != nil {
				return nil, d.err
			}
			v := NewBV2(w, hi, lo)
			if v.Hi != hi || v.Lo != lo {
				return nil, fmt.Errorf("sym: decode: constant %x:%x overflows width %d", hi, lo, w)
			}
			k.valHi, k.valLo = hi, lo
		case OpVar:
			class := VarClass(d.byte())
			nameLen := d.uvarint()
			if d.err != nil {
				return nil, d.err
			}
			if class > CtrlVar {
				return nil, fmt.Errorf("sym: decode: invalid variable class %d", class)
			}
			if nameLen == 0 || nameLen > maxVarNameLen || nameLen > uint64(len(d.buf)) {
				return nil, fmt.Errorf("sym: decode: invalid variable name length %d", nameLen)
			}
			k.class = class
			k.name = string(d.buf[:nameLen])
			d.buf = d.buf[nameLen:]
		case OpExtract:
			hi, lo := d.uvarint(), d.uvarint()
			if hi > uint64(MaxWidth) || lo > hi {
				d.fail("invalid extract bounds [%d:%d]", hi, lo)
			}
			k.hi, k.lo = uint16(hi), uint16(lo)
		}
		switch arity {
		case 1:
			k.a = child()
		case 2:
			k.a, k.b = child(), child()
		case 3:
			k.a, k.b, k.c = child(), child(), child()
		}
		if d.err != nil {
			return nil, d.err
		}
		if err := validateNode(k); err != nil {
			return nil, err
		}
		nodes = append(nodes, b.intern(k))
	}
	nroots := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if nroots > n {
		return nil, fmt.Errorf("sym: decode: root count %d exceeds node count %d", nroots, n)
	}
	roots := make([]*Expr, 0, nroots)
	for uint64(len(roots)) < nroots {
		r := child()
		if d.err != nil {
			return nil, d.err
		}
		roots = append(roots, r)
	}
	if d.err == nil && len(d.buf) != 0 {
		return nil, fmt.Errorf("sym: decode: %d trailing bytes after root table", len(d.buf))
	}
	return roots, d.err
}

// validateNode enforces the width discipline the smart constructors
// guarantee, so raw-interned nodes are indistinguishable from built
// ones and downstream evaluation cannot hit width panics.
func validateNode(k exprKey) error {
	bad := func(why string) error {
		return fmt.Errorf("sym: decode: %s node violates width discipline: %s", k.op, why)
	}
	switch k.op {
	case OpConst, OpVar:
		return nil
	case OpNot:
		if k.a.Width != k.width {
			return bad("operand width mismatch")
		}
	case OpExtract:
		if k.a.Width <= k.hi {
			return bad("extract bound exceeds operand width")
		}
		if k.width != k.hi-k.lo+1 {
			return bad("result width is not hi-lo+1")
		}
	case OpConcat:
		if uint32(k.a.Width)+uint32(k.b.Width) != uint32(k.width) {
			return bad("result width is not the operand width sum")
		}
	case OpEq, OpUlt:
		if k.a.Width != k.b.Width {
			return bad("operand width mismatch")
		}
		if k.width != 1 {
			return bad("comparison result must be width 1")
		}
	case OpIte:
		if k.a.Width != 1 {
			return bad("condition must be width 1")
		}
		if k.b.Width != k.width || k.c.Width != k.width {
			return bad("branch width mismatch")
		}
	default: // binary bitwise/arithmetic/shift
		if k.a.Width != k.width || k.b.Width != k.width {
			return bad("operand width mismatch")
		}
	}
	return nil
}
