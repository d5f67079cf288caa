package cache

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Accesses-s.Misses) / float64(s.Accesses)
}

// Resident returns the number of valid lines.
func (c *Cache) Resident() int {
	n := 0
	for _, w := range c.ways {
		if w != 0 {
			n++
		}
	}
	return n
}

// Probe reports whether addr is resident without updating LRU state or
// filling.
func (c *Cache) Probe(addr uint64) bool {
	s, key := c.locate(addr)
	for _, w := range c.set(s) {
		if c.holds(w, key) {
			return true
		}
	}
	return false
}
