package nosql

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stats"
)

func TestInsertReadRoundTrip(t *testing.T) {
	s := Open(4, 1)
	s.Insert("k1", Record{"f0": "a", "f1": "b"})
	rec, err := s.Read("k1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec["f0"] != "a" || rec["f1"] != "b" {
		t.Fatalf("read %v", rec)
	}
	if _, err := s.Read("missing", nil); err != ErrNotFound {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestReadProjection(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1", "b": "2", "c": "3"})
	rec, err := s.Read("k", []string{"a", "c", "zz"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 2 || rec["a"] != "1" || rec["c"] != "3" {
		t.Fatalf("projection %v", rec)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1"})
	rec, _ := s.Read("k", nil)
	rec["a"] = "mutated"
	again, _ := s.Read("k", nil)
	if again["a"] != "1" {
		t.Fatal("store aliased caller map")
	}
}

func TestInsertClonesInput(t *testing.T) {
	s := Open(2, 1)
	in := Record{"a": "1"}
	s.Insert("k", in)
	in["a"] = "mutated"
	got, _ := s.Read("k", nil)
	if got["a"] != "1" {
		t.Fatal("store aliased inserted map")
	}
}

func TestUpdateMergesFields(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1", "b": "2"})
	if err := s.Update("k", Record{"b": "20", "c": "30"}); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Read("k", nil)
	if rec["a"] != "1" || rec["b"] != "20" || rec["c"] != "30" {
		t.Fatalf("merged %v", rec)
	}
	if err := s.Update("missing", Record{"x": "y"}); err != ErrNotFound {
		t.Fatalf("update missing err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1"})
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("k", nil); err != ErrNotFound {
		t.Fatal("deleted key still readable")
	}
	if err := s.Delete("k"); err != ErrNotFound {
		t.Fatal("double delete should fail")
	}
	if s.Size() != 0 {
		t.Fatalf("size %d after delete", s.Size())
	}
}

func TestReadModifyWrite(t *testing.T) {
	s := Open(2, 1)
	s.Insert("counter", Record{"n": "0"})
	for i := 0; i < 10; i++ {
		err := s.ReadModifyWrite("counter", func(r Record) Record {
			r["n"] = fmt.Sprintf("%d", i+1)
			return r
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rec, _ := s.Read("counter", nil)
	if rec["n"] != "10" {
		t.Fatalf("rmw result %v", rec)
	}
	if err := s.ReadModifyWrite("missing", func(r Record) Record { return r }); err != ErrNotFound {
		t.Fatal("rmw on missing key should fail")
	}
}

func TestScanGlobalOrder(t *testing.T) {
	s := Open(8, 2) // many partitions: scan must merge correctly
	for i := 0; i < 500; i++ {
		s.Insert(fmt.Sprintf("key%04d", i), Record{"v": fmt.Sprintf("%d", i)})
	}
	got := s.Scan("key0100", 50)
	if len(got) != 50 {
		t.Fatalf("scan returned %d, want 50", len(got))
	}
	for i, kv := range got {
		want := fmt.Sprintf("key%04d", 100+i)
		if kv.Key != want {
			t.Fatalf("scan[%d] = %s, want %s", i, kv.Key, want)
		}
	}
}

func TestScanPastEnd(t *testing.T) {
	s := Open(4, 3)
	s.Insert("a", Record{"v": "1"})
	if got := s.Scan("zzz", 10); len(got) != 0 {
		t.Fatalf("scan past end returned %v", got)
	}
	if got := s.Scan("a", 0); got != nil {
		t.Fatal("zero limit should return nil")
	}
}

// scanOracle is the brute-force reference Scan: the first limit keys >= start
// of the sorted model, with their records.
func scanOracle(model map[string]Record, start string, limit int) []KV {
	keys := make([]string, 0, len(model))
	for k := range model {
		if k >= start {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: k, Rec: model[k]}
	}
	return out
}

func TestScanMatchesSortedPrefixOracle(t *testing.T) {
	for _, parts := range []int{1, 3, 4, 8} {
		t.Run(fmt.Sprintf("parts-%d", parts), func(t *testing.T) {
			g := stats.NewRNG(uint64(100 + parts))
			s := Open(parts, uint64(parts))
			model := map[string]Record{}
			// Even key numbers only, so odd numbers fall between keys.
			key := func(n int) string { return fmt.Sprintf("k%05d", n) }
			for i := 0; i < 600; i++ {
				k := key(2 * g.IntN(400))
				switch g.IntN(6) {
				case 0:
					if _, ok := model[k]; ok {
						if err := s.Delete(k); err != nil {
							t.Fatal(err)
						}
						delete(model, k)
					}
				case 1:
					if _, ok := model[k]; ok {
						upd := Record{"f1": fmt.Sprintf("u%d", i)}
						if err := s.Update(k, upd); err != nil {
							t.Fatal(err)
						}
						model[k] = Record{"f0": model[k]["f0"], "f1": upd["f1"]}
					}
				default:
					rec := Record{"f0": fmt.Sprintf("v%d", i), "f1": k}
					s.Insert(k, rec)
					model[k] = rec
				}
			}
			starts := []string{"", "a", key(0), "k99999", "z"}
			for i := 0; i < 40; i++ {
				starts = append(starts, key(g.IntN(800)))
			}
			for _, start := range starts {
				limits := []int{1, 2, len(model), len(model) + 7, 1 + g.IntN(50)}
				// A limit equal to one partition's tail length exhausts it.
				for _, p := range s.parts {
					tail := 0
					p.list.scanFrom(start, func(string, Record) bool { tail++; return true })
					limits = append(limits, tail, tail+1)
				}
				for _, limit := range limits {
					got := s.Scan(start, limit)
					want := scanOracle(model, start, limit)
					if len(got) != len(want) {
						t.Fatalf("Scan(%q, %d) returned %d records, want %d", start, limit, len(got), len(want))
					}
					for i := range want {
						if got[i].Key != want[i].Key || !reflect.DeepEqual(got[i].Rec, want[i].Rec) {
							t.Fatalf("Scan(%q, %d)[%d] = %s %v, want %s %v",
								start, limit, i, got[i].Key, got[i].Rec, want[i].Key, want[i].Rec)
						}
					}
				}
			}
		})
	}
}

func TestScanIsolation(t *testing.T) {
	s := Open(4, 9)
	for i := 0; i < 20; i++ {
		s.Insert(fmt.Sprintf("k%02d", i), Record{"a": "1", "b": "2"})
	}
	// Mutating a scan result must not reach the store.
	got := s.Scan("k05", 3)
	got[0].Rec["a"] = "mutated"
	delete(got[1].Rec, "b")
	for _, k := range []string{"k05", "k06"} {
		if rec, _ := s.Read(k, nil); rec["a"] != "1" || rec["b"] != "2" {
			t.Fatalf("scan result aliased stored record %s: %v", k, rec)
		}
	}
	// Writes after the scan must not reach an already-returned record, nor
	// the stored maps Scan gathered by reference: every writer installs a
	// fresh map (the copy-on-write invariant Scan relies on).
	got = s.Scan("k07", 2)
	stored := func(k string) Record {
		rec, _ := s.part(k).list.get(k)
		return rec
	}
	refs := []Record{stored("k07"), stored("k08"), stored("k09")}
	if err := s.Update("k07", Record{"a": "updated"}); err != nil {
		t.Fatal(err)
	}
	err := s.ReadModifyWrite("k08", func(r Record) Record {
		r["a"] = "rmw"
		r["c"] = "new"
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Insert("k09", Record{"a": "inserted"})
	for _, kv := range got {
		if kv.Rec["a"] != "1" || len(kv.Rec) != 2 {
			t.Fatalf("returned record %s changed by a later write: %v", kv.Key, kv.Rec)
		}
	}
	for i, ref := range refs {
		if ref["a"] != "1" || len(ref) != 2 {
			t.Fatalf("stored record k0%d mutated in place by a later write: %v", 7+i, ref)
		}
	}
	if rec, _ := s.Read("k08", nil); rec["a"] != "rmw" || rec["c"] != "new" {
		t.Fatalf("rmw not applied: %v", rec)
	}
}

// TestScanAllocs pins the clone-survivors-only contract: gathering costs at
// most one allocation per partition, so an 8-partition scan may allocate at
// most 7 more times than a 1-partition scan of the same records, never
// limit more per partition.
func TestScanAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const limit = 100
	rec := Record{}
	for f := 0; f < 10; f++ {
		rec[fmt.Sprintf("field%d", f)] = "0123456789"
	}
	allocs := func(parts int) float64 {
		s := Open(parts, 1)
		for i := 0; i < 2000; i++ {
			s.Insert(fmt.Sprintf("user%06d", i), rec)
		}
		return testing.AllocsPerRun(20, func() {
			if got := s.Scan("user000500", limit); len(got) != limit {
				t.Fatalf("scan returned %d records", len(got))
			}
		})
	}
	one, eight := allocs(1), allocs(8)
	if eight-one > 7 {
		t.Fatalf("Scan allocs: %.0f with 1 partition, %.0f with 8; want at most 7 more", one, eight)
	}
}

func TestSizeAndPartitions(t *testing.T) {
	s := Open(0, 4) // clamps to 1
	if s.Partitions() != 1 {
		t.Fatalf("partitions %d", s.Partitions())
	}
	for i := 0; i < 100; i++ {
		s.Insert(fmt.Sprintf("k%d", i), Record{"v": "x"})
	}
	if s.Size() != 100 {
		t.Fatalf("size %d", s.Size())
	}
	// Overwrites do not grow the store.
	s.Insert("k0", Record{"v": "y"})
	if s.Size() != 100 {
		t.Fatalf("size after overwrite %d", s.Size())
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	s := Open(8, 5)
	for i := 0; i < 1000; i++ {
		s.Insert(fmt.Sprintf("key%04d", i), Record{"f": "init"})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := stats.NewRNG(uint64(w))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("key%04d", g.IntN(1000))
				switch g.IntN(4) {
				case 0:
					if _, err := s.Read(key, nil); err != nil && err != ErrNotFound {
						errs <- err
						return
					}
				case 1:
					if err := s.Update(key, Record{"f": "upd"}); err != nil && err != ErrNotFound {
						errs <- err
						return
					}
				case 2:
					s.Scan(key, 10)
				default:
					s.Insert(key, Record{"f": "new"})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStackInterface(t *testing.T) {
	s := Open(2, 1)
	if s.Name() == "" || s.Type() != stacks.TypeNoSQL {
		t.Fatal("stack identity wrong")
	}
}

func TestSkipListOrderInvariant(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		l := newSkipList(stats.NewRNG(seed))
		inserted := map[string]bool{}
		for _, r := range raw {
			key := fmt.Sprintf("k%05d", r)
			l.set(key, Record{"v": "1"})
			inserted[key] = true
		}
		want := make([]string, 0, len(inserted))
		for k := range inserted {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		l.scanFrom("", func(k string, _ Record) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) || l.len() != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListDeleteInvariant(t *testing.T) {
	f := func(seed uint64, keys []uint8, dels []uint8) bool {
		l := newSkipList(stats.NewRNG(seed))
		model := map[string]bool{}
		for _, k := range keys {
			key := fmt.Sprintf("k%03d", k)
			l.set(key, Record{})
			model[key] = true
		}
		for _, d := range dels {
			key := fmt.Sprintf("k%03d", d)
			got := l.del(key)
			want := model[key]
			if got != want {
				return false
			}
			delete(model, key)
		}
		if l.len() != len(model) {
			return false
		}
		for k := range model {
			if _, ok := l.get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
