package cpu

import "fmt"

// CloneableSource is an OpSource whose cursor state can be deep-copied.
// Forking a warmed simulation requires every core's source to implement it:
// the fork must replay exactly the op stream the parent would have seen,
// from the same position, without sharing mutable state.
type CloneableSource interface {
	OpSource
	CloneSource() OpSource
}

// Clone returns a deep copy of the core wired to mem instead of the
// original's memory port. The copy carries the full in-flight state — ROB
// entries, fetch gap, buffered next op, and
// statistics — so ticking it produces exactly the cycles the original
// would have produced. It fails if the op source cannot be cloned.
func (c *Core) Clone(mem Memory) (*Core, error) {
	cs, ok := c.src.(CloneableSource)
	if !ok {
		return nil, fmt.Errorf("cpu: op source %T is not cloneable", c.src)
	}
	n := new(Core)
	*n = *c
	n.mem = mem
	n.src = cs.CloneSource()
	n.rob = append([]robEntry(nil), c.rob...)
	return n, nil
}
