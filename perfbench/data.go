package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"strconv"
	"unsafe"

	rd "radixdecluster"
	"radixdecluster/internal/workload"
)

// strategies are cycled in this fixed order by every workload.
var strategies = []rd.Strategy{
	rd.DSMPostDecluster, rd.DSMPre, rd.NSMPreHash,
	rd.NSMPrePhash, rd.NSMPostDecluster, rd.NSMPostJive,
}

// proj is the projection list of both sides: key + 2 payload columns
// per relation, both payloads projected.
var proj = []string{"p1", "p2"}

// dataset holds one seed's generated input columns. Relations are
// built over these slices (never copied or mutated) at every set-up.
type dataset struct {
	larger, smaller []rd.Column
}

// genData draws a key/foreign-key pair (hit rate 1, no selection) of n
// tuples per side from seed.
func genData(n int, seed uint64) (*dataset, error) {
	p, err := workload.GenPair(workload.Params{
		N: n, Omega: 3, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	cols := func(r *workload.Relation) []rd.Column {
		return []rd.Column{
			{Name: "key", Values: r.Key()},
			{Name: "p1", Values: r.PayloadCol(1)},
			{Name: "p2", Values: r.PayloadCol(2)},
		}
	}
	return &dataset{larger: cols(p.Larger), smaller: cols(p.Smaller)}, nil
}

// relations builds fresh relations over the dataset; fresh relations
// have no lazy NSM image or encoding yet, so every set-up pays for
// them again.
func (d *dataset) relations(compressed bool) (l, s *rd.Relation, err error) {
	var opts []rd.RelationOption
	if compressed {
		opts = append(opts, rd.WithCompression())
	}
	if l, err = rd.NewRelationOpts("larger", d.larger, opts...); err != nil {
		return nil, nil, fmt.Errorf("build relation: %w", err)
	}
	if s, err = rd.NewRelationOpts("smaller", d.smaller, opts...); err != nil {
		return nil, nil, fmt.Errorf("build relation: %w", err)
	}
	return l, s, nil
}

func joinQuery(l, s *rd.Relation, st rd.Strategy) rd.JoinQuery {
	return rd.JoinQuery{
		Larger: l, Smaller: s, LargerKey: "key", SmallerKey: "key",
		LargerProject: proj, SmallerProject: proj, Strategy: st,
	}
}

// digest identifies a result: its row count and a CRC-32C of each
// column's bytes, in result column order.
type digest struct {
	Rows int      `json:"rows"`
	Cols []uint32 `json:"cols"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digestOf(cols [][]int32) digest {
	d := digest{Cols: make([]uint32, len(cols))}
	if len(cols) > 0 {
		d.Rows = len(cols[0])
	}
	for i, c := range cols {
		if len(c) != d.Rows {
			d.Rows = -1 // ragged: never equal to a reference
		}
		if len(c) > 0 {
			d.Cols[i] = crc32.Checksum(unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), 4*len(c)), castagnoli)
		}
	}
	return d
}

func (d digest) equal(o digest) bool {
	if d.Rows != o.Rows || len(d.Cols) != len(o.Cols) {
		return false
	}
	for i := range d.Cols {
		if d.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}

// references maps a strategy index to its result digest.
type references []digest

// computeReferences runs every strategy once, serial and raw, over
// fresh raw relations.
func computeReferences(d *dataset) (references, error) {
	l, s, err := d.relations(false)
	if err != nil {
		return nil, err
	}
	refs := make(references, len(strategies))
	for i, st := range strategies {
		res, err := rd.ProjectJoin(joinQuery(l, s, st))
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", st, err)
		}
		refs[i] = digestOf(res.Cols)
	}
	return refs, nil
}

// childEnv marks a process started to compute references, so a test
// binary standing in for the benchmark binary knows to run the
// benchmark's entry point instead of its tests.
const childEnv = "PERFBENCH_REFERENCE_CHILD"

// loadReferences computes the references in a child process of this
// binary, so their serial-path memory does not count in this
// process's peak resident set (max_rss_mb).
func loadReferences(wl string, n int, seed uint64) (references, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	cmd := exec.Command(exe, "--reference", "--workload", wl,
		"--n", strconv.Itoa(n), "--seed", strconv.FormatUint(seed, 10))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("references: child process: %w", err)
	}
	var refs references
	if err := json.Unmarshal(out.Bytes(), &refs); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	if len(refs) != len(strategies) {
		return nil, fmt.Errorf("references: got %d digests, want %d", len(refs), len(strategies))
	}
	return refs, nil
}
