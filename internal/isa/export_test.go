package isa

// IsMem reports whether the op is any memory access.
func (o Op) IsMem() bool { return o.IsGlobalMem() || o.IsSharedMem() }

// IsStore reports whether the op writes memory.
func (o Op) IsStore() bool { return o == OpStGlobal || o == OpStShared }
