package memctrl

// Clone returns a deep copy of the controller: queued requests, in-flight
// completions, drain/quiescence state, the channel timing model, and all
// statistics. Ticking the copy reproduces exactly the command stream the
// original would have issued.
func (c *Controller) Clone() *Controller {
	n := new(Controller)
	*n = *c
	n.ch = c.ch.Clone()
	n.mapper = c.mapper.Clone()
	n.readQ = append([]Request(nil), c.readQ...)
	n.writeQ = append([]Request(nil), c.writeQ...)
	n.pending = append(completionHeap(nil), c.pending...)
	n.doneBuf = append([]Completion(nil), c.doneBuf...)
	n.scanFlags = append([]bankFlags(nil), c.scanFlags...)
	n.boundMemo = append([]int64(nil), c.boundMemo...)
	return n
}
