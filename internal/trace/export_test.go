package trace

// Reset clears the buffered events (counters keep their values).
// Nil-safe.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.ring = t.ring[:0]
	t.next = 0
	t.dropped = 0
	t.epoch = 0
}
