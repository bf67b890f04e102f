package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// fakeRecord builds a synthetic record+body pair; store and pagination
// tests do not need real layouts, only well-shaped IDs and hashed
// bodies.
func fakeRecord(set, name, flowID string, area int) Item {
	body := []byte(fmt.Sprintf("fgl-body %s %s %s %d\n", set, name, flowID, area))
	rec := Record{
		ID:        set + "__" + name + "__" + flowID,
		Set:       set,
		Name:      name,
		FlowID:    flowID,
		Library:   "QCA ONE",
		Scheme:    "2DDWave",
		Algorithm: "ortho",
		Area:      area,
		Width:     area,
		Height:    1,
		Gates:     area / 2,
		Crossings: area % 3,
		Campaign:  "test",
	}
	return NewItem(rec, body)
}

// storeFactories is the backend matrix every contract test runs over.
func storeFactories(t *testing.T) map[string]func() Storage {
	t.Helper()
	return map[string]func() Storage{
		"mem": func() Storage { return NewMemStore() },
		"disk": func() Storage {
			st, err := OpenDiskStore(filepath.Join(t.TempDir(), "store"))
			if err != nil {
				t.Fatalf("open disk store: %v", err)
			}
			return st
		},
	}
}

func TestStorageContract(t *testing.T) {
	for backend, mk := range storeFactories(t) {
		t.Run(backend, func(t *testing.T) {
			st := mk()
			defer st.Close()

			if got := len(st.Snapshot()); got != 0 {
				t.Fatalf("fresh store has %d records", got)
			}
			if _, err := st.Get("a__b__c"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
			}
			if _, err := st.Blob("0000"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Blob on empty store: %v, want ErrNotFound", err)
			}

			a := fakeRecord("s1", "f1", "qcaone_2ddwave_ortho", 10)
			b := fakeRecord("s1", "f2", "qcaone_2ddwave_ortho", 20)
			ap, err := st.Apply([]Item{b, a})
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if ap.Added != 2 || ap.Updated != 0 || ap.Unchanged != 0 {
				t.Fatalf("apply = %+v, want 2 added", ap)
			}

			snap := st.Snapshot()
			if len(snap) != 2 || snap[0].ID != a.Record.ID || snap[1].ID != b.Record.ID {
				t.Fatalf("snapshot not sorted by ID: %+v", snap)
			}

			got, err := st.Get(a.Record.ID)
			if err != nil || got.Area != 10 {
				t.Fatalf("Get(%s) = %+v, %v", a.Record.ID, got, err)
			}
			body, err := st.Blob(a.Record.Hash)
			if err != nil || string(body) != string(a.Body) {
				t.Fatalf("Blob round trip: %q, %v", body, err)
			}

			// Idempotent re-apply: identical content → Unchanged.
			ap, err = st.Apply([]Item{a})
			if err != nil || ap.Unchanged != 1 || ap.Added != 0 || ap.Updated != 0 {
				t.Fatalf("re-apply = %+v, %v, want 1 unchanged", ap, err)
			}

			// Replacing a record with new content → Updated, new blob
			// reachable, old snapshot unaffected.
			before := st.Snapshot()
			a2 := fakeRecord("s1", "f1", "qcaone_2ddwave_ortho", 11)
			ap, err = st.Apply([]Item{a2})
			if err != nil || ap.Updated != 1 {
				t.Fatalf("update apply = %+v, %v, want 1 updated", ap, err)
			}
			if before[0].Area != 10 {
				t.Fatal("held snapshot mutated by a later Apply")
			}
			got, err = st.Get(a.Record.ID)
			if err != nil || got.Area != 11 || got.Hash != a2.Record.Hash {
				t.Fatalf("after update Get = %+v, %v", got, err)
			}

			stats := st.Stats()
			if stats.Layouts != 2 || stats.Blobs < 2 || stats.Bytes <= 0 {
				t.Fatalf("stats = %+v", stats)
			}
			if len(stats.Campaigns) != 1 || stats.Campaigns[0] != "test" {
				t.Fatalf("campaigns = %v", stats.Campaigns)
			}

			// Malformed IDs are rejected before anything lands.
			bad := fakeRecord("s1", "f9", "flow", 1)
			bad.Record.ID = "../../etc/passwd"
			if _, err := st.Apply([]Item{bad}); err == nil {
				t.Fatal("apply accepted a path-traversal ID")
			}
		})
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := fakeRecord("s1", "f1", "qcaone_2ddwave_ortho", 10)
	if _, err := st.Apply([]Item{a}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, err := st2.Get(a.Record.ID)
	if err != nil {
		t.Fatalf("record lost across reopen: %v", err)
	}
	if rec.Hash != a.Record.Hash {
		t.Fatalf("hash changed across reopen: %s vs %s", rec.Hash, a.Record.Hash)
	}
	body, err := st2.Blob(rec.Hash)
	if err != nil || string(body) != string(a.Body) {
		t.Fatalf("blob lost across reopen: %q, %v", body, err)
	}
}

func TestDiskStoreCorruptedBlobIsIntegrityError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := fakeRecord("s1", "f1", "qcaone_2ddwave_ortho", 10)
	if _, err := st.Apply([]Item{a}); err != nil {
		t.Fatal(err)
	}
	// Flip the stored bytes behind the store's back.
	path := filepath.Join(dir, "blobs", a.Record.Hash[:2], a.Record.Hash+".fgl")
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Blob(a.Record.Hash)
	if err == nil {
		t.Fatal("corrupted blob served without error")
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) || !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted blob error %v is not an IntegrityError", err)
	}
	if ie.Hash != a.Record.Hash {
		t.Fatalf("IntegrityError names %s, want %s", ie.Hash, a.Record.Hash)
	}
}

func TestDiskStoreRejectsTraversalHashes(t *testing.T) {
	st, err := OpenDiskStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, h := range []string{"../index", "..", "ABCDEF", "ab/cd", ""} {
		if _, err := st.Blob(h); !errors.Is(err, ErrNotFound) {
			t.Errorf("Blob(%q) = %v, want ErrNotFound", h, err)
		}
	}
}

func TestMergeSnapshotDuplicateIDsInBatch(t *testing.T) {
	a1 := fakeRecord("s", "f", "flow1", 1)
	a1.Record.ID = "s__f__x"
	a2 := fakeRecord("s", "f", "flow2", 2)
	a2.Record.ID = "s__f__x"
	merged, ap := mergeSnapshot(nil, sortBatch([]Item{a1, a2}))
	if len(merged) != 1 || merged[0].Area != 2 {
		t.Fatalf("duplicate-ID batch merged to %+v, want the later item", merged)
	}
	if ap.Added != 1 {
		t.Fatalf("applied = %+v", ap)
	}
}

// TestBestPerFunctionOrderIndependent pins Table I's tie-break: equal
// areas go to fewer crossings, then to the smallest flow ID, whatever
// order the records come in.
func TestBestPerFunctionOrderIndependent(t *testing.T) {
	rec := func(name, flow string, area, crossings int) Record {
		return Record{ID: "s__" + name + "__" + flow, Set: "S", Name: name, Library: "QCA ONE",
			FlowID: flow, Area: area, Crossings: crossings}
	}
	cases := []struct {
		recs []Record
		want []string
	}{
		{[]Record{rec("f", "b", 12, 1), rec("f", "a", 12, 1)}, []string{"s__f__a"}},
		{[]Record{rec("f", "a", 12, 2), rec("f", "b", 12, 1), rec("f", "c", 13, 0)}, []string{"s__f__b"}},
		{[]Record{rec("f", "a", 12, 0), rec("g", "a", 5, 0), rec("f", "b", 9, 3)}, []string{"s__f__b", "s__g__a"}},
	}
	for i, c := range cases {
		rev := slices.Clone(c.recs)
		slices.Reverse(rev)
		for _, recs := range [][]Record{c.recs, rev} {
			var got []string
			for _, r := range BestPerFunction(recs) {
				got = append(got, r.ID)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("case %d: best %v, want %v", i, got, c.want)
			}
		}
	}
}
