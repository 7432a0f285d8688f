package bufferpool

// clockReplacer picks the pool's eviction victims with the second-chance
// (CLOCK) policy: a hand sweeps the frame table; a referenced frame gets its
// bit cleared and is passed over once, an unreferenced evictable frame is the
// victim. It is not safe for concurrent use; the pool serializes access under
// its own mutex. Frames are identified by their index in the frame table.
type clockReplacer struct {
	ref       []bool
	evictable []bool
	hand      int
	n         int // evictable frames
}

func newClockReplacer(frames int) *clockReplacer {
	return &clockReplacer{ref: make([]bool, frames), evictable: make([]bool, frames)}
}

// noteAccess records a reference to frame i (on every hit and load).
func (c *clockReplacer) noteAccess(i int) { c.ref[i] = true }

// setEvictable marks frame i as an eviction candidate (pin count reached
// zero) or withdraws it (page pinned again).
func (c *clockReplacer) setEvictable(i int, ok bool) {
	if c.evictable[i] == ok {
		return
	}
	c.evictable[i] = ok
	if ok {
		c.n++
	} else {
		c.n--
	}
}

// victim selects an evictable frame, withdraws it from consideration, and
// returns it. ok is false when no frame is evictable.
func (c *clockReplacer) victim() (int, bool) {
	if c.n == 0 {
		return 0, false
	}
	// Two sweeps suffice: the first clears every reference bit on the
	// evictable frames, the second must find one unreferenced.
	for step := 0; step < 2*len(c.ref)+1; step++ {
		i := c.hand
		c.hand = (c.hand + 1) % len(c.ref)
		if !c.evictable[i] {
			continue
		}
		if c.ref[i] {
			c.ref[i] = false
			continue
		}
		c.setEvictable(i, false)
		return i, true
	}
	return 0, false
}

// remove withdraws frame i entirely (its page was freed).
func (c *clockReplacer) remove(i int) {
	c.setEvictable(i, false)
	c.ref[i] = false
}
