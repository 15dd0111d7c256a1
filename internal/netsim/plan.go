// Flood plan cache: the per-origin compiled fan-out (tentpole of the
// "cache the multicast fan-out" optimization). A plan pairs a
// topology.Tour — the flattened Euler-tour of the fast flood's DFS from
// one origin — with the host flag of every visited entry. Replaying the
// plan performs the same deliveries, the same sever → count → drop call
// sequence per link, and the same jitter/drop/duplicate RNG draws in the
// same order as the DFS, so a run with plans enabled is byte-identical
// (fingerprint and all) to one without; see topology/tour.go for the
// order-preservation argument and DESIGN.md §13 for the full design.
//
// Plans are compiled lazily on first use and held in a size-capped LRU
// keyed by (origin, downOnly). The cap is a total entry budget across
// all cached plans, bounding worst-case cache heap at roughly
// budget × ~40 bytes regardless of tree size or origin diversity.
// Origins past the cap fall back to the plain DFS; admission under
// pressure is scan-resistant (an origin must re-miss within a recency
// window before it may evict residents), so a one-shot sweep over many
// origins — the session-message round-robin at SYN10K scale — never
// thrashes the resident working set.
package netsim

import (
	"time"

	"cesrm/internal/topology"
)

// DefaultFloodPlanEntries is the default total-entry budget of the flood
// plan cache: 1<<20 entries is ~40 MB of worst-case cache heap, enough
// to hold every (origin, downOnly) plan of every catalog trace while
// keeping the 10k-receiver SYN10K stress entry to a bounded working set.
const DefaultFloodPlanEntries = 1 << 20

// PlanStats is a snapshot of the flood plan cache counters.
type PlanStats struct {
	// Hits counts floods replayed from a cached plan.
	Hits uint64
	// Misses counts floods that found no cached plan; a miss compiles
	// and caches the plan when the budget and admission policy allow,
	// and falls back to the DFS otherwise.
	Misses uint64
	// Evictions counts plans removed to make room (plus plans discarded
	// by a cache invalidation, e.g. a post-setup AttachHost).
	Evictions uint64
}

// Add accumulates other into s (for aggregating across runs).
func (s *PlanStats) Add(other PlanStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
}

// floodPlan is one cached fan-out: the topology tour plus the baked
// per-entry host flags (which is why AttachHost invalidates the cache).
type floodPlan struct {
	key  int64
	tour topology.Tour
	host []bool
	// prev/next chain the cache's LRU list, most recent at head.
	prev, next *floodPlan
}

// planCache is the size-capped LRU of compiled flood plans.
type planCache struct {
	byKey      map[int64]*floodPlan
	head, tail *floodPlan
	// budget and used count tour entries, not plans: the unit that
	// actually bounds heap.
	budget, used int
	stats        PlanStats
	// lastMiss and tick implement scan-resistant admission: lastMiss[k]
	// is the miss tick at which plan key k last failed a lookup. When
	// inserting would evict, the key must have re-missed within the
	// admission window to be admitted.
	lastMiss []int64
	tick     int64
}

// planKey encodes (origin, downOnly): full floods and subcasts from the
// same node are distinct plans.
func planKey(origin topology.NodeID, downOnly bool) int64 {
	k := int64(origin) << 1
	if downOnly {
		k |= 1
	}
	return k
}

// EnableFloodPlans turns on the flood plan cache with the given total
// entry budget (<= 0 selects DefaultFloodPlanEntries). Enable once,
// before the run; plans never change observable behavior — only the
// cost of the fast flood path — so fingerprints are byte-identical with
// the cache on or off. The queuing flood path ignores plans entirely
// and remains the conformance oracle.
func (n *Network) EnableFloodPlans(budgetEntries int) {
	if budgetEntries <= 0 {
		budgetEntries = DefaultFloodPlanEntries
	}
	n.plans = &planCache{
		byKey:    make(map[int64]*floodPlan),
		budget:   budgetEntries,
		lastMiss: make([]int64, 2*n.tree.NumNodes()),
	}
}

// PlanStats returns a snapshot of the plan cache counters; zero when
// the cache is disabled.
func (n *Network) PlanStats() PlanStats {
	if n.plans == nil {
		return PlanStats{}
	}
	return n.plans.stats
}

// invalidatePlans discards every cached plan (host flags are baked into
// plans, so AttachHost after enabling must purge). Counted as
// evictions.
func (n *Network) invalidatePlans() {
	c := n.plans
	if c == nil || len(c.byKey) == 0 {
		return
	}
	c.stats.Evictions += uint64(len(c.byKey))
	c.byKey = make(map[int64]*floodPlan)
	c.head, c.tail = nil, nil
	c.used = 0
}

// moveToFront marks pl most recently used.
func (c *planCache) moveToFront(pl *floodPlan) {
	if c.head == pl {
		return
	}
	// Unlink (pl is in the list and is not head, so pl.prev != nil).
	pl.prev.next = pl.next
	if pl.next != nil {
		pl.next.prev = pl.prev
	} else {
		c.tail = pl.prev
	}
	// Relink at head.
	pl.prev = nil
	pl.next = c.head
	c.head.prev = pl
	c.head = pl
}

// insertFront links a fresh plan at the head of the LRU list.
func (c *planCache) insertFront(pl *floodPlan) {
	pl.prev = nil
	pl.next = c.head
	if c.head != nil {
		c.head.prev = pl
	}
	c.head = pl
	if c.tail == nil {
		c.tail = pl
	}
	c.byKey[pl.key] = pl
	c.used += len(pl.tour.Entries)
}

// evictLRU removes the least recently used plan.
func (c *planCache) evictLRU() {
	pl := c.tail
	if pl == nil {
		return
	}
	c.tail = pl.prev
	if c.tail != nil {
		c.tail.next = nil
	} else {
		c.head = nil
	}
	delete(c.byKey, pl.key)
	c.used -= len(pl.tour.Entries)
	c.stats.Evictions++
	pl.prev, pl.next = nil, nil
}

// planFor returns the cached plan for (origin, downOnly), compiling and
// caching it on a miss when the budget allows. A nil return means the
// flood should take the plain DFS path.
func (n *Network) planFor(origin topology.NodeID, downOnly bool) *floodPlan {
	c := n.plans
	key := planKey(origin, downOnly)
	if pl := c.byKey[key]; pl != nil {
		c.stats.Hits++
		c.moveToFront(pl)
		return pl
	}
	c.stats.Misses++
	c.tick++
	// Admission is decided before compiling, using the tree size as the
	// plan-size bound, so a rejected origin costs one map probe — not a
	// wasted tree walk.
	bound := n.tree.NumNodes()
	if bound > c.budget {
		// A full plan could exceed the whole budget: never cache.
		return nil
	}
	if c.used+bound > c.budget {
		// Inserting may evict residents. Scan resistance: only an origin
		// that missed again within the recency window may displace them;
		// a one-shot sweep over many origins (session round-robin on a
		// huge tree) keeps missing outside the window and never evicts
		// the hot set. The window scales with the resident plan count so
		// a hot set slightly larger than the cache still rotates in.
		last := c.lastMiss[key]
		c.lastMiss[key] = c.tick
		window := int64(4*len(c.byKey)) + 64
		if last == 0 || c.tick-last > window {
			return nil
		}
	}
	pl := n.compilePlan(key, origin, downOnly)
	for c.used+len(pl.tour.Entries) > c.budget {
		c.evictLRU()
	}
	c.insertFront(pl)
	return pl
}

// compilePlan builds the plan: the pure-topology tour plus the host
// flags at compile time.
func (n *Network) compilePlan(key int64, origin topology.NodeID, downOnly bool) *floodPlan {
	tour := n.tree.FloodTour(origin, downOnly)
	host := make([]bool, len(tour.Entries))
	for i := range tour.Entries {
		host[i] = n.hostAt[tour.Entries[i].Node] != nil
	}
	return &floodPlan{key: key, tour: tour, host: host}
}

// replayPlan reenacts the flood from a compiled plan: a linear scan of
// the pop-order entries, each delivering (when hosting) and running its
// link checks exactly as the DFS would, with severed or dropped links
// marking the neighbor's region start so the scan jumps its whole span.
// The call sequence — jitter draw, linkSevered, countCrossing, drop,
// delivery scheduling (hop-cohort groups or per-host events, chosen by
// the same canGroupDeliveries predicate the DFS uses) — is identical
// to the DFS's by the region-contiguity argument in topology/tour.go,
// so fingerprints cannot move. Allocation-free once the skip-mark
// scratch has grown to the largest replayed plan.
func (n *Network) replayPlan(pl *floodPlan, p *Packet) {
	entries, ops := pl.tour.Entries, pl.tour.Ops
	if len(n.skipMark) < len(entries) {
		n.skipMark = make([]uint64, len(entries))
	}
	mark := n.skipMark
	n.visitGen++
	gen := n.visitGen
	perHop := n.cfg.LinkDelay + n.txTime(p)
	now := n.eng.Now()
	grouped := n.canGroupDeliveries(perHop)
	if grouped {
		n.beginGrouping(now, perHop, p)
	}
	for i := 0; i < len(entries); {
		if mark[i] == gen {
			i += int(entries[i].Span)
			continue
		}
		e := &entries[i]
		if i > 0 && pl.host[i] {
			if grouped {
				n.groupDeliver(e.Node, int(e.Hops))
			} else {
				n.scheduleDelivery(now.Add(time.Duration(e.Hops)*perHop+n.jitter()), n.hostAt[e.Node], p)
			}
		}
		opStart := int32(0)
		if i > 0 {
			opStart = entries[i-1].OpsEnd
		}
		for j := opStart; j < e.OpsEnd; j++ {
			op := &ops[j]
			if n.linkSevered(op.Link) {
				mark[op.Region] = gen
				continue
			}
			n.countCrossing(p)
			if n.drop != nil && n.drop(p, op.Link, op.Down) {
				mark[op.Region] = gen
			}
		}
		i++
	}
	if grouped {
		n.flushGroups()
	}
}
