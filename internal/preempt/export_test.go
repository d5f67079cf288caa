package preempt

// BusyUntil returns when smID's engine lane frees (for tests).
func (e *Engine) BusyUntil(smID int) int64 { return e.busyUntil[smID] }
