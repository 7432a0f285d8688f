// Package querylang parses the paper's textual query notation (Section
// 3.3/3.4) into core.Query values. The grammar, with the paper's examples:
//
//	query     := '(' valuepred ( ',' position )* ')' ( ';' 'distinct' INT )?
//	valuepred := ATTR '=' values | ATTR '=' '[' value '-' value ']'   range
//	           | ATTR '=' '*'                                        any value
//	values    := value | '{' value ( ',' value )* '}'
//	position  := classref | '[' classref ( ',' classref )* ']' | '?'
//	classref  := CLASS ( '*' )? ( '$' oids | pred )?
//	pred      := '{' ATTR '=' value '}'        select restriction (paper q3)
//	oids      := '?' | INT | '{' INT ( ',' INT )* '}'
//
// CLASS is either a class name ("Automobile") or a compact class code from
// the paper ("C5A", with '*' for the subtree as in "C5A*"). Positions are
// terminal-first, exactly as the paper writes them:
//
//	(Color=Red, C5B, ?)                 red trucks (class only)
//	(Color=[Blue-Red], C5B*)            range over the Truck subtree
//	(Color=Red, [C5A*, C5B])            paper query 5
//	(Age=50, C1, C2$12, C5*) ; distinct 2
//
// An open range end may be written as '[' value '-' ']' or '[' '-' value ']'.
package querylang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/store"
)

// Parse compiles a textual query against the given index.
func Parse(ix *core.Index, input string) (core.Query, error) {
	p := &parser{ix: ix, in: input}
	q, err := p.parse()
	if err != nil {
		return core.Query{}, fmt.Errorf("querylang: %w (in %q)", err, input)
	}
	return q, nil
}

type parser struct {
	ix  *core.Index
	in  string
	pos int
}

func (p *parser) ws() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.ws()
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

func (p *parser) eat(c byte) bool {
	if p.peek() == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(c byte) error {
	if !p.eat(c) {
		return fmt.Errorf("expected %q at offset %d", string(c), p.pos)
	}
	return nil
}

// token reads an identifier/number/quoted-string token.
func (p *parser) token() (string, error) {
	p.ws()
	if p.pos < len(p.in) && p.in[p.pos] == '"' {
		end := strings.IndexByte(p.in[p.pos+1:], '"')
		if end < 0 {
			return "", fmt.Errorf("unterminated string at offset %d", p.pos)
		}
		s := p.in[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		return s, nil
	}
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == ',' || c == ')' || c == '(' || c == '[' || c == ']' || c == '{' ||
			c == '}' || c == '$' || c == '*' || c == ';' || c == ' ' || c == '\t' ||
			c == '=' || c == '-' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected a token at offset %d", p.pos)
	}
	return p.in[start:p.pos], nil
}

func (p *parser) parse() (core.Query, error) {
	var q core.Query
	if err := p.expect('('); err != nil {
		return q, err
	}
	vp, err := p.valuePred()
	if err != nil {
		return q, err
	}
	q.Value = vp
	for p.eat(',') {
		pos, err := p.position()
		if err != nil {
			return q, err
		}
		q.Positions = append(q.Positions, pos)
	}
	if err := p.expect(')'); err != nil {
		return q, err
	}
	if p.eat(';') {
		kw, err := p.token()
		if err != nil {
			return q, err
		}
		if kw != "distinct" {
			return q, fmt.Errorf("expected 'distinct', got %q", kw)
		}
		n, err := p.token()
		if err != nil {
			return q, err
		}
		d, err := strconv.Atoi(n)
		if err != nil {
			return q, fmt.Errorf("bad distinct count %q", n)
		}
		q.Distinct = d
	}
	if p.peek() != 0 {
		return q, fmt.Errorf("trailing input at offset %d", p.pos)
	}
	return q, nil
}

// value converts a token to the index's attribute type.
func (p *parser) value(tok string) (any, error) {
	switch p.ix.AttrType() {
	case encoding.AttrUint64:
		v, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad uint64 value %q", tok)
		}
		return v, nil
	case encoding.AttrInt64:
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad int64 value %q", tok)
		}
		return v, nil
	case encoding.AttrFloat64:
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float value %q", tok)
		}
		return v, nil
	default:
		return tok, nil
	}
}

func (p *parser) valuePred() (core.ValuePred, error) {
	var vp core.ValuePred
	attr, err := p.token()
	if err != nil {
		return vp, err
	}
	if attr != p.ix.Spec().Attr {
		return vp, fmt.Errorf("index %q is on attribute %q, not %q", p.ix.Spec().Name, p.ix.Spec().Attr, attr)
	}
	if err := p.expect('='); err != nil {
		return vp, err
	}
	switch {
	case p.eat('*'):
		return core.ValuePred{}, nil // any value
	case p.eat('['):
		// Range [lo-hi], either end may be empty.
		if !p.eat('-') {
			tok, err := p.token()
			if err != nil {
				return vp, err
			}
			if vp.Lo, err = p.value(tok); err != nil {
				return vp, err
			}
			if err := p.expect('-'); err != nil {
				return vp, err
			}
		}
		if p.peek() != ']' {
			tok, err := p.token()
			if err != nil {
				return vp, err
			}
			if vp.Hi, err = p.value(tok); err != nil {
				return vp, err
			}
		}
		return vp, p.expect(']')
	case p.eat('{'):
		for {
			tok, err := p.token()
			if err != nil {
				return vp, err
			}
			v, err := p.value(tok)
			if err != nil {
				return vp, err
			}
			vp.Values = append(vp.Values, v)
			if !p.eat(',') {
				break
			}
		}
		return vp, p.expect('}')
	default:
		tok, err := p.token()
		if err != nil {
			return vp, err
		}
		v, err := p.value(tok)
		if err != nil {
			return vp, err
		}
		vp.Values = []any{v}
		return vp, nil
	}
}

func (p *parser) position() (core.Position, error) {
	if p.eat('?') {
		return core.Any, nil
	}
	if p.eat('[') {
		var pos core.Position
		for {
			cp, err := p.classRef()
			if err != nil {
				return pos, err
			}
			pos.Alts = append(pos.Alts, cp)
			if !p.eat(',') {
				break
			}
		}
		return pos, p.expect(']')
	}
	cp, err := p.classRef()
	if err != nil {
		return core.Position{}, err
	}
	return core.Position{Alts: []core.ClassPattern{cp}}, nil
}

func (p *parser) classRef() (core.ClassPattern, error) {
	var cp core.ClassPattern
	tok, err := p.token()
	if err != nil {
		return cp, err
	}
	class, err := p.resolveClass(tok)
	if err != nil {
		return cp, err
	}
	cp.Class = class
	cp.Subtree = p.eat('*')
	if p.peek() == '{' {
		return p.predicate(cp)
	}
	if p.eat('$') {
		if p.eat('?') {
			return cp, nil // any object, explicit
		}
		if p.eat('{') {
			for {
				n, err := p.token()
				if err != nil {
					return cp, err
				}
				oid, err := strconv.ParseUint(n, 10, 32)
				if err != nil {
					return cp, fmt.Errorf("bad oid %q", n)
				}
				cp.OIDs = append(cp.OIDs, store.OID(oid))
				if !p.eat(',') {
					break
				}
			}
			return cp, p.expect('}')
		}
		n, err := p.token()
		if err != nil {
			return cp, err
		}
		oid, err := strconv.ParseUint(n, 10, 32)
		if err != nil {
			return cp, fmt.Errorf("bad oid %q", n)
		}
		cp.OIDs = []store.OID{store.OID(oid)}
	}
	return cp, nil
}

// predicate parses "{Attr=value}" after a class reference and resolves it
// with a store select over the class hierarchy — the paper's Valᵢ form
// "4) a predicate" and its Section-3.3 query 3 ("The companies' object-ids
// must be first restricted by a select operation").
func (p *parser) predicate(cp core.ClassPattern) (core.ClassPattern, error) {
	if err := p.expect('{'); err != nil {
		return cp, err
	}
	attr, err := p.token()
	if err != nil {
		return cp, err
	}
	if err := p.expect('='); err != nil {
		return cp, err
	}
	tok, err := p.token()
	if err != nil {
		return cp, err
	}
	if err := p.expect('}'); err != nil {
		return cp, err
	}
	a, ok := p.ix.Store().Schema().AttrOf(cp.Class, attr)
	if !ok || a.IsRef() {
		return cp, fmt.Errorf("%q is not a scalar attribute of %q", attr, cp.Class)
	}
	want, err := coerce(a.Type, tok)
	if err != nil {
		return cp, err
	}
	oids := p.ix.Store().Select(cp.Class, attr, func(v any) bool {
		return scalarEqual(v, want)
	})
	cp.Subtree = true
	if len(oids) == 0 {
		cp.OIDs = []store.OID{0} // matches nothing; OIDs start at 1
	} else {
		cp.OIDs = oids
	}
	return cp, nil
}

// coerce converts a token to the attribute's value domain.
func coerce(t encoding.AttrType, tok string) (any, error) {
	switch t {
	case encoding.AttrUint64:
		v, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad uint64 predicate value %q", tok)
		}
		return v, nil
	case encoding.AttrInt64:
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad int64 predicate value %q", tok)
		}
		return v, nil
	case encoding.AttrFloat64:
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float predicate value %q", tok)
		}
		return v, nil
	default:
		return tok, nil
	}
}

// scalarEqual compares a stored attribute value with a coerced predicate
// value, tolerating the int/uint64/int64 convenience forms the store
// accepts.
func scalarEqual(stored, want any) bool {
	switch w := want.(type) {
	case uint64:
		switch s := stored.(type) {
		case uint64:
			return s == w
		case int:
			return s >= 0 && uint64(s) == w
		case int64:
			return s >= 0 && uint64(s) == w
		}
		return false
	case int64:
		switch s := stored.(type) {
		case int64:
			return s == w
		case int:
			return int64(s) == w
		}
		return false
	}
	return stored == want
}

// resolveClass accepts a class name or a compact class code ("C5A").
func (p *parser) resolveClass(tok string) (string, error) {
	sch := p.ix.Coding()
	// Try as a class name first: index path classes and their subtrees
	// are the only classes a query may mention; names win over codes.
	for _, row := range sch.Table() {
		if row.Class == tok {
			return tok, nil
		}
	}
	for _, row := range sch.Table() {
		if row.Code.Compact() == tok || string(row.Code) == tok {
			return row.Class, nil
		}
	}
	return "", fmt.Errorf("unknown class or code %q", tok)
}
