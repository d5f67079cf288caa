package schema

import (
	"encoding/json"
	"strconv"
	"unsafe"
)

// Cursor reads a journal record on its fast path: one JSON value in
// exactly the layout json.Marshal writes for the record's type — no
// whitespace, object keys in struct field order, an omitempty field
// absent or present once, strings of printable ASCII without escapes.
// A decoder built on it names the fields it expects in order, Key for
// one json.Marshal always writes and Opt for an omitempty one, and reads
// each value with the reader of its type:
//
//	o.JobID = c.Opt("job_id").String()
//	o.Workload = c.Key("workload").String()
//
// Opt returns nil for an absent field, and every reader returns its zero
// value on a nil Cursor, which is what json.Unmarshal leaves in a field
// the record omits. Anything else — a reordered, unknown, duplicated or
// differently cased key, a null where a value is expected, a number
// json.Unmarshal would refuse, an escape or a non-ASCII byte — fails
// the cursor, and every later read is a no-op returning a zero value.
// The caller then checks Done and, when it reports false, decodes the
// record again with json.Unmarshal, which reads any layout: the fast
// path only decides how a record is read, never whether it is.
//
// One flag carries the comma rule: first is set by '{' and '[' and
// cleared by every value read, so the next key or element needs a comma
// exactly when something came before it at that depth.
type Cursor struct {
	b     []byte
	i     int
	first bool
	bad   bool
}

// Decode decodes one record: by read on the fast path when raw is in
// the layout json.Marshal writes for T, else by json.Unmarshal.
func Decode[T any](raw []byte, read func(*Cursor) T) (T, error) {
	c := NewCursor(raw)
	if v := read(&c); c.Done() {
		return v, nil
	}
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

// ReadArray reads an array of values, each by read; c is nil for an
// absent one, and [] reads as an empty, non-nil slice.
func ReadArray[T any](c *Cursor, read func(*Cursor) T) []T {
	if c == nil {
		return nil
	}
	vs := []T{}
	for c.OpenArray(); c.More(); {
		vs = append(vs, read(c))
	}
	return vs
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Done reports whether every read succeeded and consumed all of b.
func (c *Cursor) Done() bool { return !c.bad && c.i == len(c.b) }

// peek returns the next byte, or 0 at the end of b.
func (c *Cursor) peek() byte {
	if c.i < len(c.b) {
		return c.b[c.i]
	}
	return 0
}

// expect consumes byte ch or fails.
func (c *Cursor) expect(ch byte) {
	if c.bad || c.peek() != ch {
		c.bad = true
		return
	}
	c.i++
}

// Open consumes the '{' that starts an object.
func (c *Cursor) Open() {
	c.expect('{')
	c.first = true
}

// Close consumes the '}' that ends an object: a key left over (unknown,
// reordered or repeated) fails here.
func (c *Cursor) Close() {
	c.expect('}')
	c.first = false
}

// Opt consumes the key name, with the comma before it unless it is the
// object's first, and returns c, or nil when the key is not there: an
// omitempty field json.Marshal left out, whose value reads as zero.
func (c *Cursor) Opt(name string) *Cursor {
	if c.bad {
		return c
	}
	j := c.i
	if !c.first {
		if c.peek() != ',' {
			return nil
		}
		j++
	}
	end := j + len(name) + 3
	if end > len(c.b) || c.b[j] != '"' || string(c.b[j+1:end-2]) != name || c.b[end-2] != '"' || c.b[end-1] != ':' {
		return nil
	}
	c.i = end
	return c
}

// Key is Opt for a key json.Marshal always writes: its absence fails c.
func (c *Cursor) Key(name string) *Cursor {
	if c.Opt(name) == nil {
		c.bad = true
	}
	return c
}

// OpenArray consumes the '[' that starts an array.
func (c *Cursor) OpenArray() {
	c.expect('[')
	c.first = true
}

// More reports whether the array has another element, consuming the
// comma before it, or else the closing ']'.
func (c *Cursor) More() bool {
	if c.bad {
		return false
	}
	if c.peek() == ']' {
		c.i++
		c.first = false
		return false
	}
	if !c.first {
		c.expect(',')
	}
	return !c.bad
}

// String reads a string of printable ASCII without escapes.
func (c *Cursor) String() string {
	if c == nil {
		return ""
	}
	c.expect('"')
	start := c.i
	for !c.bad && c.i < len(c.b) {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			c.first = false
			return string(c.b[start : c.i-1])
		case ch < 0x20 || ch >= 0x80 || ch == '\\':
			c.bad = true
		}
		c.i++
	}
	c.bad = true
	return ""
}

// Bool reads true or false.
func (c *Cursor) Bool() bool {
	switch {
	case c == nil || c.bad:
		return false
	case c.literal("true"):
		return true
	case c.literal("false"):
		return false
	}
	c.bad = true
	return false
}

// Null consumes a null and reports whether there was one.
func (c *Cursor) Null() bool { return !c.bad && c.literal("null") }

// literal consumes lit, a JSON literal, and reports whether it was next.
func (c *Cursor) literal(lit string) bool {
	if len(c.b)-c.i < len(lit) || string(c.b[c.i:c.i+len(lit)]) != lit {
		return false
	}
	c.i += len(lit)
	c.first = false
	return true
}

// number consumes one JSON number and returns its text, which aliases b
// and must not outlive the call it is passed to; whole reports that it
// has no fraction or exponent. Anything that is not a number by the JSON
// grammar fails c.
func (c *Cursor) number() (text string, whole bool) {
	if c == nil || c.bad {
		return "", false
	}
	b, i := c.b, c.i
	digits := func() int {
		n := 0
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	n := digits()
	ok := n > 0 && (n == 1 || b[i-n] != '0') // no leading zero
	whole = true
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok, whole = digits() > 0, false
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok, whole = digits() > 0, false
	}
	if !ok {
		c.bad = true
		return "", false
	}
	text = unsafe.String(&b[c.i], i-c.i)
	c.i = i
	c.first = false
	return text, whole
}

// Float reads a number as json.Unmarshal reads one into a float64: the
// nearest float64, and a failure where that is out of range.
func (c *Cursor) Float() float64 {
	text, _ := c.number()
	if text == "" {
		return 0
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		c.bad = true
	}
	return f
}

// Int reads an int as json.Unmarshal does: an integer in range, without
// a fraction or an exponent.
func (c *Cursor) Int() int { return int(c.integer(strconv.IntSize)) }

// Int64 is Int for an int64.
func (c *Cursor) Int64() int64 { return c.integer(64) }

// integer reads an integer that fits in bits bits.
func (c *Cursor) integer(bits int) int64 {
	text, whole := c.number()
	if text == "" {
		return 0
	}
	v, err := strconv.ParseInt(text, 10, bits)
	if err != nil || !whole {
		c.bad = true
		return 0
	}
	return v
}

// Uint64 reads a uint64 as json.Unmarshal does.
func (c *Cursor) Uint64() uint64 {
	text, whole := c.number()
	if text == "" {
		return 0
	}
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil || !whole {
		c.bad = true
		return 0
	}
	return v
}
