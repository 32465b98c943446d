package synth

import "sync"

// Store is a content-addressed checkpoint store: synthesized module
// netlists keyed by module digest. Implementations must be safe for
// concurrent use — the compile farm shares one store across every client
// session and every compile, each of which maps through a Cache of its
// own.
//
// Stored netlists are treated as immutable once saved.
type Store interface {
	// Load returns the checkpoint for d, if present.
	Load(d Digest) (*ModuleNetlist, bool)
	// Save installs the checkpoint for d (last writer wins; entries for
	// the same digest are interchangeable by construction).
	Save(d Digest, n *ModuleNetlist)
	// Stats reports cumulative hit/miss/eviction counters.
	Stats() StoreStats
}

// StoreStats are cumulative counters of a checkpoint store.
type StoreStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// MemStore is a mutex-guarded in-memory Store with LRU eviction.
type MemStore struct {
	mu      sync.Mutex
	cap     int
	tick    int64
	entries map[Digest]*storeEntry

	hits, misses, evictions int64
}

type storeEntry struct {
	net     *ModuleNetlist
	lastUse int64
}

// NewMemStore returns an empty store holding at most capacity module
// checkpoints; capacity <= 0 means unbounded.
func NewMemStore(capacity int) *MemStore {
	return &MemStore{cap: capacity, entries: make(map[Digest]*storeEntry)}
}

// Load implements Store.
func (s *MemStore) Load(d Digest) (*ModuleNetlist, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[d]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.tick++
	e.lastUse = s.tick
	return e.net, true
}

// Save implements Store.
func (s *MemStore) Save(d Digest, n *ModuleNetlist) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if e, ok := s.entries[d]; ok {
		e.net = n
		e.lastUse = s.tick
		return
	}
	if s.cap > 0 && len(s.entries) >= s.cap {
		s.evictLocked()
	}
	s.entries[d] = &storeEntry{net: n, lastUse: s.tick}
}

// evictLocked removes the least-recently-used entry.
func (s *MemStore) evictLocked() {
	var victim Digest
	oldest := int64(0)
	first := true
	for d, e := range s.entries {
		if first || e.lastUse < oldest {
			victim, oldest, first = d, e.lastUse, false
		}
	}
	if !first {
		delete(s.entries, victim)
		s.evictions++
	}
}

// Stats implements Store.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
		Entries: len(s.entries),
	}
}
