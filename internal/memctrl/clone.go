package memctrl

// Clone returns a deep copy of the controller: queued requests and their
// per-bank summaries, in-flight completions, drain/quiescence state, the channel timing model, and all
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
	for i := range c.sum {
		n.sum[i] = c.sum[i].clone()
	}
	n.ready = append([]uint64(nil), c.ready...)
	return n
}
