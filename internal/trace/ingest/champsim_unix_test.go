//go:build unix

package ingest

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"unsafe"

	"glider/internal/trace"
)

// syntheticReader procedurally serves `records` ChampSim records without
// ever materializing them: record i has ip = i*8+4096 and a single load at
// block i%(1<<20)+1 (never zero — a zero slot means "no operand"). Memory
// use is O(1) regardless of trace size.
type syntheticReader struct {
	records int
	pos     int64 // byte offset into the virtual stream
	rec     [trace.ChampSimRecordSize]byte
}

func (r *syntheticReader) fill(i int64) {
	for j := range r.rec {
		r.rec[j] = 0
	}
	binary.LittleEndian.PutUint64(r.rec[0:8], uint64(i*8+4096))
	binary.LittleEndian.PutUint64(r.rec[32:40], (uint64(i)%(1<<20)+1)<<trace.BlockShift)
}

func (r *syntheticReader) Read(p []byte) (int, error) {
	total := int64(r.records) * trace.ChampSimRecordSize
	if r.pos >= total {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && r.pos < total {
		i := r.pos / trace.ChampSimRecordSize
		off := int(r.pos % trace.ChampSimRecordSize)
		r.fill(i)
		c := copy(p[n:], r.rec[off:])
		n += c
		r.pos += int64(c)
	}
	return n, nil
}

// TestChampSimSchemeMemoryBoundedByN: the champsim scheme over a 256 MiB
// ChampSim file returns exactly the n accesses asked for and allocates in
// proportion to n, not to the file — decoding the whole file would
// materialize 4 Mi accesses (96 MiB). The file is a named pipe fed by
// syntheticReader, so the 256 MiB never touch the disk, and the writer
// seeing the pipe close early proves the scheme stopped reading.
func TestChampSimSchemeMemoryBoundedByN(t *testing.T) {
	const records = 4 << 20 // 4 Mi records × 64 B = 256 MiB of trace
	const traceBytes = records * trace.ChampSimRecordSize
	const n = 100_000
	path := filepath.Join(t.TempDir(), "synthetic.champsim")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("no named pipes here: %v", err)
	}
	spec, err := Parse("champsim(file=" + path + ")")
	if err != nil {
		t.Fatal(err)
	}

	// The writer blocks in OpenFile until the scheme opens the pipe, and its
	// copy fails with EPIPE once the scheme has closed it.
	written := make(chan int64, 1)
	go func() {
		w, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			written <- -1
			return
		}
		k, _ := io.Copy(w, &syntheticReader{records: records})
		w.Close()
		written <- k
	}()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := spec.GenerateE(n, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if k := <-written; k < 0 || k >= traceBytes {
		t.Fatalf("writer wrote %d of %d bytes: the scheme read the whole file", k, traceBytes)
	}

	// Independent expectations straight from the generator formulas.
	if tr.Len() != n {
		t.Fatalf("got %d accesses, want %d", tr.Len(), n)
	}
	for i, a := range tr.Accesses {
		want := trace.Access{PC: uint64(i*8 + 4096), Addr: uint64(i+1) << trace.BlockShift, Kind: trace.Load}
		if a != want {
			t.Fatalf("access %d = %+v, want %+v", i, a, want)
		}
	}

	// O(n): the trace's growth steps plus the decoder's chunk buffer and
	// slack, far below the 96 MiB a whole-file decode would allocate.
	alloc := after.TotalAlloc - before.TotalAlloc
	budget := uint64(4*n*unsafe.Sizeof(trace.Access{}) + 1<<20)
	if alloc > budget {
		t.Fatalf("decoding %d accesses allocated %d bytes, budget %d", n, alloc, budget)
	}
	t.Logf("%d accesses: %d bytes allocated (budget %d)", n, alloc, budget)
}
