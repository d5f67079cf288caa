package isa

// IsStore reports whether the op writes memory.
func (o Op) IsStore() bool { return o == OpStGlobal || o == OpStShared }
