package cache

import "secddr/internal/config"

// StreamPrefetcher is the LLC stream prefetcher from Table I. It tracks up
// to N address streams; once a stream is confirmed (two accesses with the
// same unit-line stride direction), every further access on the stream
// issues Degree prefetches Dist lines ahead.
type StreamPrefetcher struct {
	cfg     config.Prefetcher
	streams []stream
	clock   uint64

	Issued    uint64 // prefetches generated
	Triggered uint64 // accesses that extended a confirmed stream
}

type stream struct {
	valid     bool
	lastLine  uint64
	dir       int64 // +1 or -1 once confirmed, 0 while training
	confirmed bool
	lastUse   uint64
}

// NewStreamPrefetcher constructs a prefetcher; a disabled config yields a
// prefetcher that never issues.
func NewStreamPrefetcher(cfg config.Prefetcher) *StreamPrefetcher {
	n := cfg.Streams
	if n <= 0 {
		n = 1
	}
	return &StreamPrefetcher{cfg: cfg, streams: make([]stream, n)}
}

// Observe feeds one demand line address (already line-aligned >> is fine;
// any byte address is accepted and treated at 64B granularity) and appends
// the byte addresses to prefetch to dst, returning the extended slice.
// Callers that pass dst[:0] of a kept buffer observe without allocating.
func (p *StreamPrefetcher) Observe(dst []uint64, addr uint64) []uint64 {
	if !p.cfg.Enabled {
		return dst
	}
	p.clock++
	lineAddr := addr >> 6

	// Find a stream this access extends: within a small window of the
	// stream head.
	const window = 8
	bestIdx := -1
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		delta := int64(lineAddr) - int64(s.lastLine)
		if delta == 0 {
			s.lastUse = p.clock
			return dst // same line again
		}
		if delta > -window && delta < window {
			bestIdx = i
			break
		}
	}

	if bestIdx < 0 {
		// Allocate a new (training) stream, evicting LRU.
		victim := 0
		for i := range p.streams {
			if !p.streams[i].valid {
				victim = i
				break
			}
			if p.streams[i].lastUse < p.streams[victim].lastUse {
				victim = i
			}
		}
		p.streams[victim] = stream{valid: true, lastLine: lineAddr, lastUse: p.clock}
		return dst
	}

	s := &p.streams[bestIdx]
	delta := int64(lineAddr) - int64(s.lastLine)
	dir := int64(1)
	if delta < 0 {
		dir = -1
	}
	s.lastUse = p.clock
	s.lastLine = lineAddr
	if !s.confirmed {
		if s.dir == dir {
			s.confirmed = true
		}
		s.dir = dir
		if !s.confirmed {
			return dst
		}
	} else if s.dir != dir {
		// Direction flip: retrain.
		s.confirmed = false
		s.dir = dir
		return dst
	}

	p.Triggered++
	n := len(dst)
	for i := 1; i <= p.cfg.Degree; i++ {
		target := int64(lineAddr) + s.dir*int64(p.cfg.Dist+i-1)
		if target < 0 {
			continue
		}
		dst = append(dst, uint64(target)<<6)
	}
	p.Issued += uint64(len(dst) - n)
	return dst
}
