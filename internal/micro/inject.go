package micro

import "fmt"

// InjectInfo reports whether an injected flip can still influence the
// run. Live == false means the flip provably cannot be consumed (free
// register, invalid queue entry, invalid cache line): the campaign may
// classify it Masked without simulating further.
type InjectInfo struct {
	Live bool
}

// StructDims returns the sampling dimensions of structure s: number of
// entries and injectable bits per entry.
func (cfg *Config) StructDims(s Structure) (entries, bitsPer int) {
	switch s {
	case StructRF:
		return cfg.PhysRegs, cfg.ISA.XLen()
	case StructLSQ:
		return cfg.LQSize + cfg.SQSize, 2 * cfg.ISA.XLen()
	}
	if c, ok := cfg.Cache(s); ok {
		return c.Lines(), c.BitsPerLine()
	}
	return 0, 0
}

// Inject flips one bit of the named structure at the current cycle and
// activates fault-propagation tracking. Entry/bit follow StructDims.
func (c *Core) Inject(s Structure, entry, bit int) InjectInfo {
	c.Taint.active = true
	switch s {
	case StructRF:
		c.prf[entry] ^= 1 << uint(bit)
		for _, f := range c.freeList {
			if f == entry {
				// A free register is always written before its next
				// read: provably masked.
				return InjectInfo{}
			}
		}
		c.prfTaint[entry] = true
		return InjectInfo{Live: true}

	case StructLSQ:
		x := c.IS.XLen()
		var e *lsqEntry
		if entry < c.Cfg.LQSize {
			e = &c.lq[entry]
		} else {
			e = &c.sq[entry-c.Cfg.LQSize]
		}
		if !e.valid {
			return InjectInfo{}
		}
		re := &c.rob[e.rob]
		if bit < x {
			e.addr ^= 1 << uint(bit)
			e.addr &= c.IS.Mask()
			if !e.addrOK {
				return InjectInfo{} // overwritten at address generation
			}
			if !e.isStore && re.executed {
				return InjectInfo{} // load already performed
			}
			e.addrTaint = true
			return InjectInfo{Live: true}
		}
		bit -= x
		if e.isStore {
			e.data ^= 1 << uint(bit)
			e.data &= c.IS.Mask()
			if !e.dataOK {
				return InjectInfo{}
			}
			e.dataTaint = true
			return InjectInfo{Live: true}
		}
		// Load-queue data field: the in-flight load result buffer.
		if re.valid && re.issued && !re.executed {
			re.result = (re.result ^ 1<<uint(bit)) & c.IS.Mask()
			re.tainted = true
			return InjectInfo{Live: true}
		}
		return InjectInfo{}

	case StructL1I:
		return c.flipCache(c.l1i, entry, bit)
	case StructL1D:
		return c.flipCache(c.l1d, entry, bit)
	case StructL2:
		return c.flipCache(c.l2, entry, bit)
	}
	panic(fmt.Sprintf("micro: bad structure %d", s))
}

func (c *Core) flipCache(ch *cache, entry, bit int) InjectInfo {
	set := entry / ch.cfg.Assoc
	way := entry % ch.cfg.Assoc
	res := ch.flipBit(set, way, bit)
	if res.StaleLen > 0 {
		c.ram.taintRange(res.StaleAddr, res.StaleLen)
	}
	return InjectInfo{Live: res.Hit}
}
