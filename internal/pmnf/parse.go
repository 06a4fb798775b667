package pmnf

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a PMNF model from its human-readable form, the inverse of
// Model.String:
//
//	8.51 + 0.11*x1^(1/3)*x2*log2(x3)^2
//	-2216.41 + 325.71*log2(x1) + 0.01*x2*log2(x2)^2
//
// Parameters must be named x1..xm (any m >= 1); the parameter count is
// inferred from the largest index that occurs. Exponents may be integers,
// decimals, or fractions in parentheses. The first term may omit the
// constant (a model "2*x1" has constant 0). Whitespace is ignored.
func Parse(s string) (Model, error) {
	return ParseNamed(s, nil)
}

// ParseNamed is Parse for a model printed with display names, as Model.String
// renders one whose ParamNames are set: parameter l may be written names[l]
// as well as x{l+1}. The model keeps the names and has at least len(names)
// parameters.
func ParseNamed(s string, names []string) (Model, error) {
	p := &parser{input: s, names: names}
	model, err := p.parse()
	if err != nil {
		return Model{}, fmt.Errorf("pmnf: parse %q: %w", s, err)
	}
	return model, nil
}

type parser struct {
	input string
	pos   int
	names []string // display names of the parameters, by index
}

// parsedTerm is one summand before the parameter count is known.
type parsedTerm struct {
	coefficient float64
	factors     map[int]Exponents // parameter index → exponents
}

func (p *parser) parse() (Model, error) {
	var terms []parsedTerm
	first := true
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		sign := 1.0
		switch {
		case p.peek() == '+':
			p.pos++
		case p.peek() == '-':
			sign = -1
			p.pos++
		default:
			if !first {
				return Model{}, fmt.Errorf("expected '+' or '-' at offset %d", p.pos)
			}
		}
		first = false
		t, err := p.parseTerm()
		if err != nil {
			return Model{}, err
		}
		t.coefficient *= sign
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return Model{}, fmt.Errorf("empty model")
	}

	// Infer the parameter count.
	maxParam := len(p.names)
	for _, t := range terms {
		for idx := range t.factors {
			if idx+1 > maxParam {
				maxParam = idx + 1
			}
		}
	}

	var model Model
	model.ParamNames = make([]string, maxParam)
	copy(model.ParamNames, p.names)
	for _, t := range terms {
		if len(t.factors) == 0 {
			model.Constant += t.coefficient
			continue
		}
		exps := make([]Exponents, maxParam)
		for idx, e := range t.factors {
			exps[idx] = e
		}
		model.Terms = append(model.Terms, Term{Coefficient: t.coefficient, Exps: exps})
	}
	return model, nil
}

// parseTerm reads coefficient and factors: NUMBER ('*' FACTOR)* or FACTOR
// ('*' FACTOR)* (implicit coefficient 1).
func (p *parser) parseTerm() (parsedTerm, error) {
	t := parsedTerm{coefficient: 1, factors: map[int]Exponents{}}
	p.skipSpace()
	if p.eof() {
		return t, fmt.Errorf("unexpected end of input")
	}
	// A leading number is the coefficient.
	if unicode.IsDigit(rune(p.peek())) || p.peek() == '.' {
		coeff, err := p.parseNumber()
		if err != nil {
			return t, err
		}
		t.coefficient = coeff
	} else {
		if err := p.parseFactor(&t); err != nil {
			return t, err
		}
	}
	for {
		p.skipSpace()
		if p.eof() || p.peek() != '*' {
			return t, nil
		}
		p.pos++
		if err := p.parseFactor(&t); err != nil {
			return t, err
		}
	}
}

// parseFactor reads one factor: "xN", "xN^EXP", "log2(xN)", "log2(xN)^EXP",
// or "1".
func (p *parser) parseFactor(t *parsedTerm) error {
	p.skipSpace()
	switch {
	case p.hasPrefix("log2("):
		p.pos += len("log2(")
		idx, err := p.parseParamRef()
		if err != nil {
			return err
		}
		if p.eof() || p.peek() != ')' {
			return fmt.Errorf("expected ')' at offset %d", p.pos)
		}
		p.pos++
		j := 1.0
		if !p.eof() && p.peek() == '^' {
			p.pos++
			v, err := p.parseExponent()
			if err != nil {
				return err
			}
			j = v
		}
		e := t.factors[idx]
		e.J += j
		t.factors[idx] = e
		return nil
	case p.hasPrefix("x") || p.nameAt() >= 0:
		idx, err := p.parseParamRef()
		if err != nil {
			return err
		}
		i := 1.0
		if !p.eof() && p.peek() == '^' {
			p.pos++
			v, err := p.parseExponent()
			if err != nil {
				return err
			}
			i = v
		}
		e := t.factors[idx]
		e.I += i
		t.factors[idx] = e
		return nil
	case p.hasPrefix("1"):
		p.pos++
		return nil
	default:
		return fmt.Errorf("expected factor at offset %d", p.pos)
	}
}

// parseParamRef reads a parameter name or "xN" and returns its index.
func (p *parser) parseParamRef() (int, error) {
	p.skipSpace()
	if l := p.nameAt(); l >= 0 {
		p.pos += len(p.names[l])
		return l, nil
	}
	if p.eof() || p.peek() != 'x' {
		return 0, fmt.Errorf("expected parameter reference at offset %d", p.pos)
	}
	p.pos++
	start := p.pos
	for !p.eof() && unicode.IsDigit(rune(p.peek())) {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("expected parameter index at offset %d", p.pos)
	}
	n, err := strconv.Atoi(p.input[start:p.pos])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("invalid parameter index %q", p.input[start:p.pos])
	}
	return n - 1, nil
}

// parseExponent reads a bare number or a parenthesized fraction "(A/B)".
func (p *parser) parseExponent() (float64, error) {
	p.skipSpace()
	if p.eof() {
		return 0, fmt.Errorf("expected exponent at offset %d", p.pos)
	}
	if p.peek() == '(' {
		p.pos++
		num, err := p.parseNumber()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		v := num
		if !p.eof() && p.peek() == '/' {
			p.pos++
			den, err := p.parseNumber()
			if err != nil {
				return 0, err
			}
			if den == 0 {
				return 0, fmt.Errorf("zero denominator at offset %d", p.pos)
			}
			v = num / den
		}
		p.skipSpace()
		if p.eof() || p.peek() != ')' {
			return 0, fmt.Errorf("expected ')' at offset %d", p.pos)
		}
		p.pos++
		return v, nil
	}
	return p.parseNumber()
}

// parseNumber reads a float literal (no sign — signs belong to the terms),
// with scientific notation allowed.
func (p *parser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		c := p.peek()
		if unicode.IsDigit(rune(c)) || c == '.' {
			p.pos++
			continue
		}
		// Scientific notation: e or E followed by optional sign.
		if (c == 'e' || c == 'E') && p.pos > start {
			next := p.pos + 1
			if next < len(p.input) && (p.input[next] == '+' || p.input[next] == '-') {
				next++
			}
			if next < len(p.input) && unicode.IsDigit(rune(p.input[next])) {
				p.pos = next + 1
				continue
			}
		}
		break
	}
	if p.pos == start {
		return 0, fmt.Errorf("expected number at offset %d", p.pos)
	}
	v, err := strconv.ParseFloat(p.input[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number %q: %w", p.input[start:p.pos], err)
	}
	return v, nil
}

// nameAt returns the index of the longest parameter name at the current
// position, or -1.
func (p *parser) nameAt() int {
	idx := -1
	for l, name := range p.names {
		if name != "" && p.hasPrefix(name) && (idx < 0 || len(name) > len(p.names[idx])) {
			idx = l
		}
	}
	return idx
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

func (p *parser) eof() bool { return p.pos >= len(p.input) }

func (p *parser) peek() byte { return p.input[p.pos] }

func (p *parser) hasPrefix(s string) bool {
	return strings.HasPrefix(p.input[p.pos:], s)
}
