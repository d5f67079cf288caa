package gpu

// TotalThreadInstrs sums executed thread instructions across kernels.
func (g *GPU) TotalThreadInstrs() int64 {
	var sum int64
	for _, st := range g.Stats {
		sum += st.ThreadInstrs
	}
	return sum
}

// WakeAll clears every SM's scheduler sleep cache (quota replenishment).
func (g *GPU) WakeAll(now int64) {
	for _, s := range g.SMs {
		s.Wake(now)
	}
}
