package journal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// nesting returns how deeply the containers of valid JSON b nest.
func nesting(b []byte) int {
	depth, most, inString := 0, 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
			most = max(most, depth)
		case c == '}' || c == ']':
			depth--
		}
	}
	return most
}

// compact reports whether valid JSON b has no whitespace between its
// tokens.
func compact(b []byte) bool {
	var c bytes.Buffer
	return json.Compact(&c, b) == nil && bytes.Equal(c.Bytes(), b)
}

// validSeeds are inputs at the validator's edges: strings, escapes and
// numbers json.Valid accepts or refuses by one byte, misplaced commas
// and colons, nesting at and just past maxDepth, trailing garbage and
// spacing it declines although it is valid.
func validSeeds() []string {
	deep := func(n int, open, close string) string {
		return strings.Repeat(open, n) + "1" + strings.Repeat(close, n)
	}
	return []string{
		`"é"`, `"\/"`, `"\x"`, `"\u12"`, `"\u12G4"`, `"ꯍ"`, `"a` + "\x01" + `b"`, `"` + "\x80\xff" + `"`,
		`"\"\\\b\f\n\r\t"`, `"`, `"\`, `"\u`, `"a` + "\t" + `"`,
		`-0`, `1E+2`, `1e-2`, `-1.5e3`, `01`, `-01`, `1.`, `.5`, `-`, `+1`, `1e`, `1e+`, `0x1`, `1.5.2`,
		`[1,]`, `[,1]`, `[1,,2]`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{1:2}`, `{"a":1"b":2}`, `{"a"::1}`, `[1]]`, `[[1]`, `{]`, `[}`,
		`{}`, `[]`, `[{}]`, `{"a":[]}`, `true`, `false`, `null`, `tru`, `nul`, `nullx`, `truefalse`,
		deep(maxDepth, "[", "]"), deep(maxDepth+1, "[", "]"), deep(maxDepth, `{"a":`, "}"), deep(maxDepth+1, `{"a":`, "}"),
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth), strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		`{"a":1}x`, `{"a":1}}`, `1 2`, `[1] `, ` [1]`, `{"a": 1}`, `[1 ,2]`, `"a b"`, ``,
	}
}

// FuzzCompactValid holds compactValid to json.Valid: it never accepts
// what json.Valid refuses, and on input with no whitespace between its
// tokens, nested at most maxDepth deep, it accepts exactly what
// json.Valid accepts. Seeded with every payload of the recorded journals
// and validSeeds.
func FuzzCompactValid(f *testing.F) {
	for _, lines := range recordedLines(f) {
		for _, l := range lines[1:] {
			rec, err := Decode(bytes.TrimSuffix(l, []byte("\n")))
			if err != nil {
				f.Fatal(err)
			}
			f.Add([]byte(rec.Data))
		}
	}
	for _, s := range validSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, want := compactValid(b), json.Valid(b)
		if got && !want {
			t.Fatalf("compactValid accepts %q, which json.Valid refuses", b)
		}
		if want && !got && compact(b) && nesting(b) <= maxDepth {
			t.Fatalf("compactValid declines %q: compact, %d deep, and json.Valid accepts it", b, nesting(b))
		}
	})
}
