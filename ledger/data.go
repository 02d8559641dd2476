package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"rover"
	"rover/internal/store"
	"rover/internal/store/disk"
)

const counterCode = `
proc get {} { state get count 0 }
proc add {n} { state set count [expr {[state get count 0] + $n}] }
`

const docCode = `proc note {w} { state set text "[state get text {}] $w" }`

func counterURN(client, i int) rover.URN {
	return rover.MustParseURN(fmt.Sprintf("urn:rover:home/c%d/n%d", client, i))
}

func newCounter(u rover.URN) *rover.Object {
	obj := rover.NewObject(u, "counter")
	obj.Code = counterCode
	return obj
}

func countOf(obj *rover.Object) int64 {
	v, _ := obj.Get("count")
	n, _ := strconv.ParseInt(v, 10, 64)
	return n
}

// blob is one read-only object of the read_mixed population.
func blobURN(i int) rover.URN {
	return rover.MustParseURN(fmt.Sprintf("urn:rover:home/blob/%d", i))
}

const blobBytes = 2000

// blobData derives blob i's payload from the seed.
func blobData(rng *rand.Rand) string {
	b := make([]byte, blobBytes)
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	return string(b)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// bulkLoad writes objs into a fresh disk store in dir with one snapshot
// load, the way an operator would restore a population, instead of one
// fsynced commit per object.
func bulkLoad(dir string, objs []*rover.Object) error {
	mem := store.New()
	for _, o := range objs {
		if err := mem.Create(o); err != nil {
			return err
		}
	}
	ds, err := disk.Open(disk.Options{Dir: dir})
	if err != nil {
		return err
	}
	if err := ds.LoadSnapshot(mem.Snapshot()); err != nil {
		ds.Close()
		return fmt.Errorf("bulk load: %w", err)
	}
	return ds.Close()
}
