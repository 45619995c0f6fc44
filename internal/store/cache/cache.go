// Package cache implements a pin-and-evict buffer pool over a store's sealed
// segments. A Cache keeps recently used decoded segments (and the
// per-segment PositionIndex fragments built over them) resident up to a
// configurable byte budget, evicting least-recently-used unpinned entries
// when the budget overflows. Pinned entries are never evicted, so the budget
// is a target, not a hard ceiling: the working set of the in-flight pins may
// exceed it transiently, exactly like a database buffer pool.
//
// A Cache outlives any one run: entries are keyed by segment identity
// (shard and seal-ordinal range), and a sealed segment is immutable for as
// long as it stays in the catalog. Each run works through a Pool, which
// Cache.Begin returns: the catalog as of the run's start, the catalog's
// summed statistics, and the run's own counters.
package cache

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
)

// Options configures a standalone Pool (see New).
type Options struct {
	// BudgetBytes caps the estimated decoded bytes the pool keeps resident
	// across unpinned entries; <= 0 means unlimited (everything touched stays
	// cached — the fits-in-RAM fast path).
	BudgetBytes int64
}

// Metrics is a snapshot of one Pool's view: the counters of the pins made
// through it, and the cache's resident bytes.
type Metrics struct {
	// Misses counts the Pin calls that decoded the body and Hits every other
	// Pin, one that waited on a concurrent decode included, so Hits + Misses
	// equals the number of Pin calls.
	Hits, Misses int64
	// Evictions counts entries dropped to fit the byte budget by this pool's
	// pins, unpins and Begin.
	Evictions int64
	// BodiesOpened counts segment body decodes — equal to Misses, named for
	// the skip-rate accounting (a skipped segment never opens its body).
	BodiesOpened int64
	// SegmentsOpened counts DISTINCT catalog segments this pool pinned; with
	// stats-driven skipping it stays below the catalog size on selective
	// workloads.
	SegmentsOpened int
	// CurBytes is the cache's estimated resident decoded bytes (pinned +
	// cached) now; PeakBytes its high-water mark while this pool accounted.
	CurBytes, PeakBytes int64
}

// cacheMetrics are the cache's registry-backed instruments. With a nil
// registry they are standalone (unregistered) instances of the same atomic
// types, so the accounting code has exactly one shape.
type cacheMetrics struct {
	pins, hits, misses      *obs.Counter
	evictions, bodiesOpened *obs.Counter
	curBytes, peakBytes     *obs.Gauge
}

func newCacheMetrics(r *obs.Registry) cacheMetrics {
	if r == nil {
		return cacheMetrics{
			pins: new(obs.Counter), hits: new(obs.Counter), misses: new(obs.Counter),
			evictions: new(obs.Counter), bodiesOpened: new(obs.Counter),
			curBytes: new(obs.Gauge), peakBytes: new(obs.Gauge),
		}
	}
	return cacheMetrics{
		pins:         r.Counter("cache.pins"),
		hits:         r.Counter("cache.hits"),
		misses:       r.Counter("cache.misses"),
		evictions:    r.Counter("cache.evictions"),
		bodiesOpened: r.Counter("cache.bodies_opened"),
		curBytes:     r.Gauge("cache.resident_bytes"),
		peakBytes:    r.Gauge("cache.peak_bytes"),
	}
}

// segKey identifies a segment across catalogs: compaction replaces
// segments by new ranges and publishes append new ones, but a (shard, from,
// to) triple always names the same immutable traces.
type segKey struct{ shard, from, to int }

func keyOf(m store.SegmentMeta) segKey { return segKey{m.Shard, m.From, m.To} }

// entry is one cached segment: decoded traces plus the lazily built
// per-segment index fragment. Lifecycle: created under mu with pins=1, loaded
// once outside mu (once), then repinned/unpinned; unpinned entries sit on the
// LRU list and are evicted when the budget overflows. The first Pin claims
// the load under mu and counts the miss; every later Pin counts a hit,
// including one that waits on the claimant's decode. The decoded body and
// any load error are published under mu.
type entry struct {
	key     segKey
	once    sync.Once
	claimed bool
	err     error

	seqs  []seqdb.Sequence
	frag  *seqdb.PositionIndex
	bytes int64 // estimated resident size, updated when frag materialises

	pins int
	elem *list.Element // non-nil while on the LRU list (pins == 0)
}

// Cache is the pin-and-evict segment cache of one store handle. Safe for
// concurrent use.
type Cache struct {
	st  *store.Store
	met cacheMetrics

	mu      sync.Mutex
	entries map[segKey]*entry
	stats   map[segKey]*store.SegmentStats // resident for catalog segments
	lru     *list.List                     // front = most recently unpinned
	budget  int64
	used    int64
	cat     *catalog // the newest Begin's catalog
	closed  bool
}

// catalog is the segment catalog as of one Begin, shared by every Pool that
// begins while it is unchanged, with its totals once computed.
type catalog struct {
	metas     []store.SegmentMeta
	keys      map[segKey]bool
	numEvents int
	totals    *Totals // guarded by Cache.mu
}

// Totals are a catalog's per-segment statistics and their sums: per-event
// occurrence counts and trace supports over the event-id space as of Begin,
// and the trace count. Shared by every run on an unchanged catalog; read-only.
type Totals struct {
	Stats    []*store.SegmentStats // per catalog segment
	Occ, Sup []int64
	Traces   int
}

// NewCache builds an empty cache over st. With reg non-nil its counters are
// the registry's cache.* series — cache.pins/hits/misses/evictions/
// bodies_opened, cache.resident_bytes and cache.peak_bytes — live-scrapeable
// while a run is in flight; Close gives the resident bytes back to the gauge.
func NewCache(st *store.Store, reg *obs.Registry) *Cache {
	return &Cache{
		st:      st,
		met:     newCacheMetrics(reg),
		entries: make(map[segKey]*entry),
		stats:   make(map[segKey]*store.SegmentStats),
		lru:     list.New(),
	}
}

// New builds a standalone pool over the store's current segment catalog:
// one run on an uninstrumented cache of its own.
func New(st *store.Store, opts Options) *Pool {
	return NewCache(st, nil).Begin(opts.BudgetBytes)
}

// Begin starts one run. It snapshots the store's catalog, reusing the
// previous snapshot and its totals when nothing changed, and drops what the
// cache holds for segments no longer in it. budget (<= 0 = unlimited)
// becomes the cache's byte budget, and unpinned entries are evicted down to
// it, counted against the returned pool.
func (c *Cache) Begin(budget int64) *Pool {
	metas := c.st.Segments()
	numEvents := c.st.Dict().Size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cat == nil || c.cat.numEvents != numEvents || !slices.Equal(c.cat.metas, metas) {
		c.setCatalog(metas, numEvents)
	}
	p := &Pool{c: c, cat: c.cat, pinned: make([]bool, len(metas))}
	c.budget = budget
	p.account(0)
	return p
}

// setCatalog installs a new newest catalog and drops the statistics and
// unpinned entries of segments it no longer names; a pinned one is dropped
// at its last unpin. Caller holds c.mu.
func (c *Cache) setCatalog(metas []store.SegmentMeta, numEvents int) {
	keys := make(map[segKey]bool, len(metas))
	for _, m := range metas {
		keys[keyOf(m)] = true
	}
	c.cat = &catalog{metas: metas, keys: keys, numEvents: numEvents}
	for k := range c.stats {
		if !keys[k] {
			delete(c.stats, k)
		}
	}
	for k, e := range c.entries {
		if !keys[k] && e.pins == 0 {
			c.drop(e)
		}
	}
}

// drop removes an unpinned entry and gives back its bytes. Caller holds c.mu.
func (c *Cache) drop(e *entry) {
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.used -= e.bytes
	c.met.curBytes.Add(-e.bytes)
}

// Close drops every unpinned entry and gives its bytes back to the
// cache.resident_bytes gauge; entries a run still pins are dropped at their
// last unpin.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for c.lru.Len() > 0 {
		c.drop(c.lru.Back().Value.(*entry))
	}
}

// Pool is one run's view of a Cache: the catalog as of Begin, addressed by
// catalog index, and the counters of the pins made through it. Safe for
// concurrent use.
type Pool struct {
	c   *Cache
	cat *catalog

	// Guarded by c.mu.
	hits, misses, evictions int64
	pinned                  []bool // per catalog segment
	numPinned               int
	peak                    int64
}

// NumSegments returns the catalog size.
func (p *Pool) NumSegments() int { return len(p.cat.metas) }

// Meta returns the catalog entry for segment i (global order).
func (p *Pool) Meta(i int) store.SegmentMeta { return p.cat.metas[i] }

// NumTraces returns the total trace count across the catalog.
func (p *Pool) NumTraces() int {
	n := 0
	for _, m := range p.cat.metas {
		n += m.NumTraces()
	}
	return n
}

// Stats returns segment i's statistics, loading them on first use. Stats are
// metadata-sized and stay resident for as long as the segment is in the
// catalog — they are the map that decides which bodies are worth opening, so
// evicting them would defeat the point. Loading stats does NOT count as
// opening the body (v2 segments carry them pre-computed; v1 backfill decodes
// once, transiently).
func (p *Pool) Stats(i int) (*store.SegmentStats, error) {
	c := p.c
	key := keyOf(p.cat.metas[i])
	c.mu.Lock()
	s := c.stats[key]
	c.mu.Unlock()
	if s != nil {
		return s, nil
	}
	// Loaded outside the lock; a racing duplicate load is harmless (same
	// bytes, last writer wins).
	s, err := c.st.LoadSegmentStats(p.cat.metas[i])
	if err != nil {
		return nil, err
	}
	c.keepStats(key, s)
	return s, nil
}

// keepStats records a segment's statistics while the newest catalog names it.
func (c *Cache) keepStats(key segKey, s *store.SegmentStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cat.keys[key] && c.stats[key] == nil {
		c.stats[key] = s
	}
}

// Totals returns the catalog's statistics and their sums, computing them on
// the first call for this catalog. No segment body is opened.
func (p *Pool) Totals() (*Totals, error) {
	c := p.c
	c.mu.Lock()
	t := p.cat.totals
	c.mu.Unlock()
	if t != nil {
		return t, nil
	}
	n := p.cat.numEvents
	t = &Totals{
		Stats: make([]*store.SegmentStats, len(p.cat.metas)),
		Occ:   make([]int64, n),
		Sup:   make([]int64, n),
	}
	for i, m := range p.cat.metas {
		ss, err := p.Stats(i)
		if err != nil {
			return nil, err
		}
		t.Stats[i] = ss
		t.Traces += m.NumTraces()
		ss.ForEachEvent(func(e seqdb.EventID, occurrences, traces int64) {
			if int(e) < n {
				t.Occ[e] += occurrences
				t.Sup[e] += traces
			}
		})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.cat.totals == nil {
		p.cat.totals = t
	}
	return p.cat.totals, nil
}

// Segment is a pinned view of one decoded segment. It stays valid (and the
// backing entry unevictable) until Unpin.
type Segment struct {
	p *Pool
	e *entry
	// Seqs holds the segment's traces in seal order; trace i has global id
	// Base+i.
	Seqs []seqdb.Sequence
	// Base is the segment's first global trace id (shard-major order).
	Base int
}

// Pin returns segment i decoded, loading it on a miss and evicting
// least-recently-used unpinned entries if the byte budget overflows. Every
// Pin must be matched by exactly one Unpin.
func (p *Pool) Pin(i int) (*Segment, error) {
	c := p.c
	meta := p.cat.metas[i]
	key := keyOf(meta)
	c.met.pins.Inc()
	c.mu.Lock()
	if !p.pinned[i] {
		p.pinned[i] = true
		p.numPinned++
	}
	e := c.entries[key]
	if e == nil {
		e = &entry{key: key}
		c.entries[key] = e
	}
	if e.claimed {
		p.hits++
		c.met.hits.Inc()
	} else {
		e.claimed = true
		p.misses++
		c.met.misses.Inc()
		c.met.bodiesOpened.Inc()
	}
	e.pins++
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	c.mu.Unlock()

	e.once.Do(func() {
		seqs, stats, err := c.st.LoadSegment(meta)
		if err == nil {
			c.keepStats(key, stats)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil {
			e.err = err
			return
		}
		e.seqs = seqs
		e.bytes = estimateBytes(seqs)
		p.account(e.bytes)
	})
	if e.err != nil {
		err := e.err
		p.unpin(e)
		return nil, err
	}
	return &Segment{p: p, e: e, Seqs: e.seqs, Base: meta.Base}, nil
}

// account adds delta to the cache's resident estimate and evicts to budget,
// counting evictions against p. Caller holds c.mu.
func (p *Pool) account(delta int64) {
	c := p.c
	c.used += delta
	c.met.curBytes.Add(delta)
	if c.used > p.peak {
		p.peak = c.used
		// On a shared registry the gauge aggregates every cache, so the
		// shared high-water mark is taken from the gauge, not this cache.
		c.met.peakBytes.SetMax(c.met.curBytes.Value())
	}
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		back := c.lru.Back()
		if back == nil {
			return // everything resident is pinned; over budget until unpins
		}
		c.drop(back.Value.(*entry))
		p.evictions++
		c.met.evictions.Inc()
	}
}

func (p *Pool) unpin(e *entry) {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pins--
	if e.pins > 0 {
		return
	}
	if e.err != nil {
		// Failed load: drop the entry so a later Pin retries.
		c.drop(e)
		return
	}
	if c.closed || !c.cat.keys[e.key] {
		c.drop(e) // the handle closed, or the segment left the catalog
		return
	}
	e.elem = c.lru.PushFront(e)
	if c.budget > 0 && c.used > c.budget {
		p.account(0)
	}
}

// Unpin releases the pin. The Segment (and any Fragment obtained from it)
// must not be used afterwards.
func (s *Segment) Unpin() { s.p.unpin(s.e) }

// Fragment returns the per-segment PositionIndex, building it on first use
// and charging its estimated footprint to the cache budget. It is built once,
// against the event-id space of the run that first needs it: events interned
// later never occur in a sealed segment, and the per-trace probes
// (SeqContains, Positions) read them as absent. Only valid while the segment
// is pinned.
func (s *Segment) Fragment() *seqdb.PositionIndex {
	c, e := s.p.c, s.e
	c.mu.Lock()
	if e.frag != nil {
		f := e.frag
		c.mu.Unlock()
		return f
	}
	c.mu.Unlock()
	n := s.p.cat.numEvents
	frag := seqdb.BuildPositionIndex(e.seqs, n)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.frag == nil {
		e.frag = frag
		cost := fragmentBytes(e.seqs, n)
		e.bytes += cost
		s.p.account(cost)
	}
	return e.frag
}

// Metrics returns a snapshot of this pool's counters and the cache's
// resident bytes.
func (p *Pool) Metrics() Metrics {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return Metrics{
		Hits:           p.hits,
		Misses:         p.misses,
		Evictions:      p.evictions,
		BodiesOpened:   p.misses,
		SegmentsOpened: p.numPinned,
		CurBytes:       p.c.used,
		PeakBytes:      p.peak,
	}
}

// estimateBytes approximates the resident size of decoded traces: 4 bytes
// per event plus slice headers.
func estimateBytes(seqs []seqdb.Sequence) int64 {
	n := int64(len(seqs)) * 24
	for _, s := range seqs {
		n += int64(len(s)) * 4
	}
	return n
}

// fragmentBytes approximates a PositionIndex fragment's footprint: postings
// and previous-occurrence arrays cost ~8 bytes per event, the per-event
// offset tables ~8 bytes per event id.
func fragmentBytes(seqs []seqdb.Sequence, numEvents int) int64 {
	n := int64(numEvents) * 8
	for _, s := range seqs {
		n += int64(len(s)) * 8
	}
	return n
}

// String implements fmt.Stringer for debugging.
func (m Metrics) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d opened=%d cur=%dB peak=%dB",
		m.Hits, m.Misses, m.Evictions, m.SegmentsOpened, m.CurBytes, m.PeakBytes)
}
