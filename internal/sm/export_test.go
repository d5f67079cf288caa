package sm

// Outstanding returns the in-flight global load misses (MSHR occupancy).
func (s *SM) Outstanding() int { return s.outstanding }

// UsedThreads returns the number of resident threads.
func (s *SM) UsedThreads() int { return s.usedThreads }
