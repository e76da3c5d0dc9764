package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/sparse"
)

// respCache is the response cache: a mutex-guarded LRU from an exact
// request key to the serialized response body served for it. Only
// deterministic requests are cached — exact predictions, and seeded
// sampled predictions (pure functions of (input, seed) by PR 2's
// guarantee) — so a hit replays the original body byte for byte. Keys
// embed the engine generation: an engine swap (POST /reload, SIGHUP)
// strands every old entry, and ReloadFrom purges them wholesale to
// return the memory.
//
// The key is the full canonical encoding of the request (generation,
// mode, seed, k, indices, values), not a hash of it, so a lookup can
// never collide two different requests into one entry.
type respCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	// evictions counts capacity displacements; hit/miss accounting lives
	// in statsRecorder with the other serving counters.
	evictions int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// cacheSizeHint caps the entry map's initial size: the map grows as
// entries arrive, so a large capacity costs memory only once it fills.
const cacheSizeHint = 1 << 10

func newRespCache(capacity int) *respCache {
	return &respCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, min(capacity, cacheSizeHint)),
	}
}

// cacheKey canonically encodes one cacheable request. Exact requests
// normalize seeded=false/seed=0 (a seed on an exact request is inert, so
// seeded and unseeded exact requests share an entry).
func cacheKey(gen int64, x sparse.Vector, k int, sampled, seeded bool, seed uint64) string {
	if !sampled {
		seeded, seed = false, 0
	}
	b := make([]byte, 0, 32+8*len(x.Idx))
	b = binary.AppendVarint(b, gen)
	b = binary.AppendUvarint(b, uint64(k))
	var flags uint64
	if sampled {
		flags |= 1
	}
	if seeded {
		flags |= 2
	}
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, seed)
	b = binary.AppendUvarint(b, uint64(len(x.Idx)))
	for _, i := range x.Idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	for _, v := range x.Val {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return string(b)
}

func (c *respCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (c *respCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A racing filler beat us; keep the existing entry so repeated
		// requests stay byte-identical to the first fill.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.entries[key] = el
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// purge drops every entry (engine swap: all generations in the cache are
// stale).
func (c *respCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
}

func (c *respCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
