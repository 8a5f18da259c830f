package ops

// PendingWindows reports how many windows still hold join state.
func (o *TemporalJoinOp) PendingWindows() int {
	return len(o.sides[0].runs) + len(o.sides[1].runs)
}
