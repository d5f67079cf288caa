package journal

// maxDepth bounds how deeply compactValid follows nested arrays and
// objects: one bit each of a uint64. A journaled record nests a handful
// deep; json.Valid allows 10 000.
const maxDepth = 64

// strPlain marks the bytes a JSON string holds as they are: every byte
// from 0x20 up (UTF-8 is not checked, as json.Valid does not check it)
// except the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// compactValid reports whether b is one JSON value (RFC 8259) written
// without whitespace between its tokens and nested at most maxDepth
// deep. It reads b once, left to right, and allocates nothing. It
// declines what it does not read — whitespace outside a string, deeper
// nesting — so it never accepts what json.Valid refuses, and on compact
// input within the bound it accepts exactly what json.Valid accepts
// (FuzzCompactValid).
func compactValid(b []byte) bool {
	var objs uint64 // bit d set: the container at depth d+1 is an object
	depth, i := 0, 0
value: // a value starts at b[i]
	for {
		if i == len(b) {
			return false
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth == maxDepth {
				return false
			}
			obj, end := c == '{', byte(']')
			if obj {
				end = '}'
			}
			if i++; i < len(b) && b[i] == end {
				i++ // empty: a whole value
				break
			}
			objs &^= 1 << depth
			if obj {
				objs |= 1 << depth
			}
			depth++
			if obj {
				if i = keyEnd(b, i); i < 0 {
					return false
				}
			}
			continue value
		case '"':
			if i = stringEnd(b, i); i < 0 {
				return false
			}
		case 't':
			if i = literalEnd(b, i, "true"); i < 0 {
				return false
			}
		case 'f':
			if i = literalEnd(b, i, "false"); i < 0 {
				return false
			}
		case 'n':
			if i = literalEnd(b, i, "null"); i < 0 {
				return false
			}
		default:
			if i = numberEnd(b, i); i < 0 {
				return false
			}
		}
		// A value ends at b[i]: close containers until one continues.
		for {
			if depth == 0 {
				return i == len(b)
			}
			if i == len(b) {
				return false
			}
			obj := objs>>(depth-1)&1 == 1
			switch b[i] {
			case ',':
				i++
				if obj {
					if i = keyEnd(b, i); i < 0 {
						return false
					}
				}
				continue value
			case '}':
				if !obj {
					return false
				}
			case ']':
				if obj {
					return false
				}
			default:
				return false
			}
			i++
			depth--
		}
	}
}

// keyEnd returns the index just past the object key and colon starting
// at b[i], or -1 if none starts there.
func keyEnd(b []byte, i int) int {
	if i == len(b) || b[i] != '"' {
		return -1
	}
	if i = stringEnd(b, i); i < 0 || i == len(b) || b[i] != ':' {
		return -1
	}
	return i + 1
}

// stringEnd returns the index just past the string whose opening quote
// is b[i], or -1 if it is not a valid string: an unescaped byte below
// 0x20, an unknown escape, a \u without four hex digits, no closing
// quote.
func stringEnd(b []byte, i int) int {
	for i++; i < len(b); i++ {
		for i < len(b) && strPlain[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			i++
			if i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !isHex(h) {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		default:
			return -1 // a control byte
		}
	}
	return -1
}

// numberEnd returns the index just past the number starting at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if none does.
// What follows it is the caller's to check: "01" is the number 0 and a
// stray 1.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// digitsEnd returns the index of the first byte at or after b[i] that is
// not a decimal digit.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// literalEnd returns the index just past lit if b[i:] starts with it,
// else -1.
func literalEnd(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// isHex reports whether c is a hexadecimal digit.
func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
