package mem

// NumPartitions returns the number of memory partitions.
func (s *System) NumPartitions() int { return len(s.parts) }
