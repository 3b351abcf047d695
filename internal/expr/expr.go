// Package expr defines the typed predicate AST used by the query layer and
// its lowering into physical code intervals.
//
// A Pred is a single-column comparison; a Conj is a conjunction of Preds
// (the WHERE-clause shape the paper's scan-heavy workloads use). Lowering a
// Pred against a concrete column produces a Ranges value: a sorted set of
// disjoint inclusive [lo, hi] intervals over the column's int64 code space.
// Ranges is the lingua franca of the system — scan kernels ask "is this
// code inside any interval?" and zone pruning asks whether none, some or
// all of a Hull (the min/max that a scan measures and a zone, block or
// shard stores) matches, through the one test Clause.Test — so data
// skipping and scanning can never disagree about predicate semantics.
package expr

import (
	"errors"
	"fmt"
	"strings"

	"adskip/internal/storage"
)

// Op is a comparison operator.
type Op uint8

// Comparison operators supported in predicates.
const (
	EQ        Op = iota // =
	NE                  // <>
	LT                  // <
	LE                  // <=
	GT                  // >
	GE                  // >=
	Between             // BETWEEN lo AND hi (inclusive)
	In                  // IN (v1, ..., vk)
	IsNull              // IS NULL
	IsNotNull           // IS NOT NULL
	Or                  // (p1 OR p2 OR ...): same-column disjunction, in Sub
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case Between:
		return "BETWEEN"
	case In:
		return "IN"
	case IsNull:
		return "IS NULL"
	case IsNotNull:
		return "IS NOT NULL"
	case Or:
		return "OR"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Errors returned by predicate validation and lowering.
var (
	ErrArity        = errors.New("expr: wrong number of arguments for operator")
	ErrNullLiteral  = errors.New("expr: NULL literal in comparison (use IS NULL, unsupported)")
	ErrTypeMismatch = errors.New("expr: literal type does not match column type")
	ErrUnknownOp    = errors.New("expr: unknown operator")
)

// Pred is a single-column predicate: a comparison, a null test, or a
// same-column disjunction of comparisons (Op==Or, disjuncts in Sub).
// Disjunctions across different columns would require a union of row sets
// rather than of code intervals and are intentionally unsupported — the
// conjunctive shape is what the paper's scan workloads use.
type Pred struct {
	Col  string
	Op   Op
	Args []storage.Value
	Sub  []Pred // Op==Or only
}

// NewOrPred builds a same-column disjunction of comparison predicates.
func NewOrPred(subs ...Pred) (Pred, error) {
	if len(subs) < 2 {
		return Pred{}, fmt.Errorf("%w: OR wants >=2 disjuncts", ErrArity)
	}
	p := Pred{Col: subs[0].Col, Op: Or, Sub: subs}
	if err := p.Validate(); err != nil {
		return Pred{}, err
	}
	return p, nil
}

// NewPred builds a predicate, validating arity.
func NewPred(col string, op Op, args ...storage.Value) (Pred, error) {
	p := Pred{Col: col, Op: op, Args: args}
	if err := p.Validate(); err != nil {
		return Pred{}, err
	}
	return p, nil
}

// MustPred is NewPred that panics on error; for tests and generators.
func MustPred(col string, op Op, args ...storage.Value) Pred {
	p, err := NewPred(col, op, args...)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks operator arity and rejects NULL literals.
func (p Pred) Validate() error {
	switch p.Op {
	case EQ, NE, LT, LE, GT, GE:
		if len(p.Args) != 1 {
			return fmt.Errorf("%w: %s wants 1 arg, got %d", ErrArity, p.Op, len(p.Args))
		}
	case Between:
		if len(p.Args) != 2 {
			return fmt.Errorf("%w: BETWEEN wants 2 args, got %d", ErrArity, len(p.Args))
		}
	case In:
		if len(p.Args) == 0 {
			return fmt.Errorf("%w: IN wants >=1 arg", ErrArity)
		}
	case IsNull, IsNotNull:
		if len(p.Args) != 0 {
			return fmt.Errorf("%w: %s wants no args, got %d", ErrArity, p.Op, len(p.Args))
		}
	case Or:
		if len(p.Sub) < 2 {
			return fmt.Errorf("%w: OR wants >=2 disjuncts", ErrArity)
		}
		for _, sub := range p.Sub {
			if sub.Col != p.Col {
				return fmt.Errorf("expr: OR mixes columns %q and %q (only same-column disjunction is supported)", p.Col, sub.Col)
			}
			switch sub.Op {
			case Or:
				return fmt.Errorf("expr: nested OR is unsupported")
			case IsNull, IsNotNull:
				return fmt.Errorf("expr: %s inside OR is unsupported", sub.Op)
			}
			if err := sub.Validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrUnknownOp, uint8(p.Op))
	}
	for _, a := range p.Args {
		if a.IsNull() {
			return ErrNullLiteral
		}
	}
	return nil
}

// String renders the predicate in SQL syntax.
func (p Pred) String() string {
	var sb strings.Builder
	p.write(&sb, false)
	return sb.String()
}

// write renders the predicate in SQL syntax, or with mask as its
// template: every literal "?" and an IN list one "?".
func (p Pred) write(sb *strings.Builder, mask bool) {
	arg := func(i int) string {
		if mask {
			return "?"
		}
		return lit(p.Args[i])
	}
	if p.Op == Or {
		sb.WriteByte('(')
		for i, sub := range p.Sub {
			if i > 0 {
				sb.WriteString(" OR ")
			}
			sub.write(sb, mask)
		}
		sb.WriteByte(')')
		return
	}
	sb.WriteString(p.Col)
	sb.WriteByte(' ')
	sb.WriteString(p.Op.String())
	switch p.Op {
	case IsNull, IsNotNull:
	case Between:
		sb.WriteString(" " + arg(0) + " AND " + arg(1))
	case In:
		n := len(p.Args)
		if mask {
			n = 1
		}
		sb.WriteString(" (")
		for i := range n {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(arg(i))
		}
		sb.WriteByte(')')
	default:
		sb.WriteString(" " + arg(0))
	}
}

func lit(v storage.Value) string {
	if v.Type() == storage.String && !v.IsNull() {
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	}
	return v.String()
}

// Conj is a conjunction (AND) of single-column predicates. An empty Conj is
// TRUE (matches every row).
type Conj struct {
	Preds []Pred
}

// And returns a conjunction of the given predicates.
func And(preds ...Pred) Conj { return Conj{Preds: preds} }

// Validate validates every conjunct.
func (c Conj) Validate() error {
	for _, p := range c.Preds {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%v: %w", p, err)
		}
	}
	return nil
}

// Columns returns the distinct column names referenced, in first-mention
// order.
func (c Conj) Columns() []string {
	if len(c.Preds) == 0 {
		return nil
	}
	// A conjunction names a handful of columns: a linear scan of the output
	// dedupes without the per-call map this sits on every query's plan path.
	out := make([]string, 0, len(c.Preds))
preds:
	for _, p := range c.Preds {
		for _, name := range out {
			if name == p.Col {
				continue preds
			}
		}
		out = append(out, p.Col)
	}
	return out
}

// String renders the conjunction in SQL syntax ("TRUE" when empty).
func (c Conj) String() string { return c.write(false) }

// Template renders the conjunction as its template, the form a statement
// fingerprint keys on: every literal "?" and an IN list one "?".
func (c Conj) Template() string { return c.write(true) }

func (c Conj) write(mask bool) string {
	if len(c.Preds) == 0 {
		return "TRUE"
	}
	var sb strings.Builder
	for i, p := range c.Preds {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		p.write(&sb, mask)
	}
	return sb.String()
}
