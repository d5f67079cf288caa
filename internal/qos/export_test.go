package qos

// Unfairness returns the current spread of normalized progress
// (max - min); 0 is perfectly fair.
func (f *Fair) Unfairness(now int64) float64 {
	lo, hi := 2.0, 0.0
	for slot := range f.m.g.Stats {
		norm := f.m.g.IPC(slot) / f.isolated[slot]
		if norm < lo {
			lo = norm
		}
		if norm > hi {
			hi = norm
		}
	}
	return hi - lo
}
