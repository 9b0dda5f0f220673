// Package nosql is bdbench's cloud-serving store: a partitioned, ordered
// key-value store with the abstract operation set YCSB defines — read,
// insert, update (field merge), delete, scan and read-modify-write. It
// stands in for the Cassandra/HBase/PNUTS systems of the paper's survey.
//
// Keys hash onto partitions; each partition is an independent skip list
// guarded by a mutex, so concurrent clients contend per-partition as they
// would across nodes. Scans scatter to all partitions and merge, like a
// range query over region servers.
package nosql

import (
	"errors"
	"sync"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stats"
)

// Record is a field-name -> value document, YCSB's record model.
//
// Stored records are copy-on-write: a map is never mutated after the store
// installs it, and every writer (Insert, Update, ReadModifyWrite) installs a
// fresh map instead. A reference taken under a partition lock therefore stays
// immutable after the lock is released; Scan depends on this.
type Record map[string]string

// clone returns a deep copy; the store never aliases caller maps.
func (r Record) clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// ErrNotFound is returned for reads/updates/deletes of absent keys.
var ErrNotFound = errors.New("nosql: key not found")

// Store is the partitioned KV store. It never mutates a stored Record in
// place (see Record), and it never hands a stored map to a caller: every
// read and scan result is a clone.
type Store struct {
	parts   []*partition
	scanRec metrics.Recorder
}

type partition struct {
	mu   sync.RWMutex
	list *skipList
	rec  metrics.Recorder
}

// Open creates a store with the given partition count (clamped to >= 1).
// The seed drives the skip lists' balancing coins only; it never affects
// contents.
func Open(partitions int, seed uint64) *Store {
	if partitions < 1 {
		partitions = 1
	}
	s := &Store{parts: make([]*partition, partitions)}
	base := stats.NewRNG(seed)
	for i := range s.parts {
		s.parts[i] = &partition{list: newSkipList(base.Split("partition", i))}
	}
	return s
}

// Name implements stacks.Stack.
func (s *Store) Name() string { return "bdbench-nosql" }

// Type implements stacks.Stack.
func (s *Store) Type() stacks.Type { return stacks.TypeNoSQL }

var _ stacks.Stack = (*Store)(nil)

// Instrument attaches a measurement recorder and returns the store.
// Partition i records its store-level operation latencies ("kv_read",
// "kv_insert", ...) into rec's substrate shard i, mirroring the store's own
// contention domains: clients hitting different partitions never share a
// measurement cell either. Scans, which span partitions, record into shard
// len(partitions).
func (s *Store) Instrument(rec metrics.Recorder) *Store {
	for i, p := range s.parts {
		p.rec = metrics.SubstrateShardOf(rec, i)
	}
	s.scanRec = metrics.SubstrateShardOf(rec, len(s.parts))
	return s
}

func (s *Store) part(key string) *partition {
	return s.parts[stats.FNV64(key)%uint64(len(s.parts))]
}

// Insert stores a full record under key, replacing any existing record.
func (s *Store) Insert(key string, rec Record) {
	p := s.part(key)
	t0 := metrics.StartTimer(p.rec)
	p.mu.Lock()
	p.list.set(key, rec.clone())
	p.mu.Unlock()
	metrics.ObserveSince(p.rec, "kv_insert", t0)
}

// Read returns the record's requested fields (all when fields is nil).
func (s *Store) Read(key string, fields []string) (Record, error) {
	p := s.part(key)
	t0 := metrics.StartTimer(p.rec)
	p.mu.RLock()
	rec, ok := p.list.get(key)
	if !ok {
		p.mu.RUnlock()
		metrics.ObserveSince(p.rec, "kv_read", t0)
		return nil, ErrNotFound
	}
	out := projectFields(rec, fields)
	p.mu.RUnlock()
	metrics.ObserveSince(p.rec, "kv_read", t0)
	return out, nil
}

func projectFields(rec Record, fields []string) Record {
	if fields == nil {
		return rec.clone()
	}
	out := make(Record, len(fields))
	for _, f := range fields {
		if v, ok := rec[f]; ok {
			out[f] = v
		}
	}
	return out
}

// Update merges the given fields into an existing record.
func (s *Store) Update(key string, fields Record) error {
	p := s.part(key)
	t0 := metrics.StartTimer(p.rec)
	defer metrics.ObserveSince(p.rec, "kv_update", t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.list.get(key)
	if !ok {
		return ErrNotFound
	}
	merged := rec.clone()
	for k, v := range fields {
		merged[k] = v
	}
	p.list.set(key, merged)
	return nil
}

// Delete removes a key.
func (s *Store) Delete(key string) error {
	p := s.part(key)
	t0 := metrics.StartTimer(p.rec)
	defer metrics.ObserveSince(p.rec, "kv_delete", t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.list.del(key) {
		return ErrNotFound
	}
	return nil
}

// ReadModifyWrite reads the record, applies fn to a copy and writes the
// result back atomically with respect to the key's partition.
func (s *Store) ReadModifyWrite(key string, fn func(Record) Record) error {
	p := s.part(key)
	t0 := metrics.StartTimer(p.rec)
	defer metrics.ObserveSince(p.rec, "kv_rmw", t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.list.get(key)
	if !ok {
		return ErrNotFound
	}
	p.list.set(key, fn(rec.clone()).clone())
	return nil
}

// KV is a scan result element.
type KV struct {
	Key string
	Rec Record
}

// Scan returns up to limit records with keys >= start, in global key order,
// by scatter-gathering the per-partition ordered lists. Each partition
// contributes at most limit entries by reference, under its own read lock;
// a bounded merge of those sorted runs picks the limit smallest keys, and
// only those survivors are cloned. Holding references past the unlock is
// safe because stored records are copy-on-write.
func (s *Store) Scan(start string, limit int) []KV {
	if limit <= 0 {
		return nil
	}
	t0 := metrics.StartTimer(s.scanRec)
	defer metrics.ObserveSince(s.scanRec, "kv_scan", t0)
	runs := make([][]KV, len(s.parts))
	total := 0
	for i, p := range s.parts {
		p.mu.RLock()
		run := make([]KV, 0, min(limit, p.list.len()))
		p.list.scanFrom(start, func(key string, rec Record) bool {
			run = append(run, KV{Key: key, Rec: rec})
			return len(run) < limit
		})
		p.mu.RUnlock()
		runs[i] = run
		total += len(run)
	}
	if total == 0 {
		return nil
	}
	n := min(limit, total)
	out := make([]KV, 0, n)
	for len(out) < n {
		// Keys are unique across partitions, so the minimum head is unique.
		best := -1
		for i, run := range runs {
			if len(run) > 0 && (best < 0 || run[0].Key < runs[best][0].Key) {
				best = i
			}
		}
		kv := runs[best][0]
		runs[best] = runs[best][1:]
		out = append(out, KV{Key: kv.Key, Rec: kv.Rec.clone()})
	}
	return out
}

// Size returns the total number of records.
func (s *Store) Size() int {
	total := 0
	for _, p := range s.parts {
		p.mu.RLock()
		total += p.list.len()
		p.mu.RUnlock()
	}
	return total
}

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.parts) }
