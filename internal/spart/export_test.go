package spart

// Owner returns the owning slot of smID.
func (c *Controller) Owner(smID int) int { return c.owner[smID] }
