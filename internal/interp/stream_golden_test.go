package interp_test

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// streamHasher is a Tracer that folds every event, with all of its
// arguments, into an FNV-64a hash: each Access's address, write and
// array flags, reduction kind, statement and full loop-stack snapshot,
// and each loop enter, iteration and exit.
type streamHasher struct {
	h   hash.Hash64
	buf []byte
}

func (s *streamHasher) put(tag byte, vals ...uint64) {
	s.buf = append(s.buf[:0], tag)
	for _, v := range vals {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	}
	s.h.Write(s.buf)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *streamHasher) Access(a *interp.Access) {
	s.put('A', a.Addr, b2u(a.Write), b2u(a.Array), uint64(a.Red), uint64(a.StmtID), uint64(len(a.Frames)))
	for _, f := range a.Frames {
		s.put('F', uint64(f.ID), uint64(f.Instance), uint64(f.Iter))
	}
}

func (s *streamHasher) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	s.put('E', uint64(id), uint64(instance), ctrlAddr, b2u(hasCtrl))
}

func (s *streamHasher) LoopIter(id int, instance, iter int64) {
	s.put('I', uint64(id), uint64(instance), uint64(iter))
}

func (s *streamHasher) LoopExit(id int, instance, iters int64) {
	s.put('X', uint64(id), uint64(instance), uint64(iters))
}

// TestEventStreamGolden pins the interpreter's complete tracer stream,
// addresses and loop-stack snapshots included, for every corpus program
// at every IR variant level. The digests in testdata/event_stream.golden
// were recorded before the interpreter resolved names at lowering; the
// deps golden pins only the analysis result, which cannot see a shifted
// address or a wrong frame.
func TestEventStreamGolden(t *testing.T) {
	f, err := os.Open("testdata/event_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " = "); ok {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	mismatch := 0
	for _, app := range bench.Corpus() {
		base := ir.MustLower(minic.MustParse(app.Name, app.Source))
		for level := 0; level < ir.NumVariants; level++ {
			sh := &streamHasher{h: fnv.New64a()}
			stats, err := interp.New(ir.Variant(base, level), sh, interp.Limits{}).Run("main")
			if err != nil {
				t.Fatalf("%s/O%d: %v", app.Name, level, err)
			}
			key := fmt.Sprintf("%s/O%d", app.Name, level)
			digest := fmt.Sprintf("%016x steps=%d", sh.h.Sum64(), stats.Steps)
			fmt.Fprintf(&got, "%s = %s\n", key, digest)
			if want[key] != digest {
				mismatch++
				t.Errorf("%s: stream %s, want %s", key, digest, want[key])
			}
		}
	}
	if mismatch > 0 {
		t.Logf("current digests:\n%s", got.String())
	}
}
