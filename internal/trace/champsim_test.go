package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildChampSimRecord assembles one 64-byte record.
func buildChampSimRecord(ip uint64, stores, loads []uint64) []byte {
	rec := make([]byte, ChampSimRecordSize)
	binary.LittleEndian.PutUint64(rec[0:8], ip)
	for i, a := range stores {
		binary.LittleEndian.PutUint64(rec[16+8*i:24+8*i], a)
	}
	for i, a := range loads {
		binary.LittleEndian.PutUint64(rec[32+8*i:40+8*i], a)
	}
	return rec
}

func TestReadChampSimExpandsMemorySlots(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(buildChampSimRecord(0x400100, []uint64{0x1000}, []uint64{0x2000, 0x3000}))
	buf.Write(buildChampSimRecord(0x400104, nil, nil)) // non-memory instr
	buf.Write(buildChampSimRecord(0x400108, nil, []uint64{0x4000}))

	tr, err := ReadChampSim(&buf, "cs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("got %d accesses, want 4", tr.Len())
	}
	if tr.Accesses[0].Kind != Store || tr.Accesses[0].Addr != 0x1000 || tr.Accesses[0].PC != 0x400100 {
		t.Fatalf("store record wrong: %+v", tr.Accesses[0])
	}
	if tr.Accesses[1].Kind != Load || tr.Accesses[1].Addr != 0x2000 {
		t.Fatalf("first load wrong: %+v", tr.Accesses[1])
	}
	if tr.Accesses[3].PC != 0x400108 {
		t.Fatalf("third record PC wrong: %+v", tr.Accesses[3])
	}
}

func TestReadChampSimMaxAccesses(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		buf.Write(buildChampSimRecord(uint64(i), nil, []uint64{uint64(0x1000 + i*64)}))
	}
	tr, err := ReadChampSim(&buf, "cs", 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("cap ignored: %d accesses", tr.Len())
	}
}

func TestReadChampSimTruncated(t *testing.T) {
	buf := bytes.NewReader(make([]byte, ChampSimRecordSize+10))
	if _, err := ReadChampSim(buf, "cs", 0); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestChampSimRoundTrip(t *testing.T) {
	orig := New("rt", 3)
	orig.Append(Access{PC: 0x400000, Addr: 0x8000, Kind: Load})
	orig.Append(Access{PC: 0x400004, Addr: 0x9000, Kind: Store})
	orig.Append(Access{PC: 0x400008, Addr: 0xa000, Kind: Writeback}) // skipped
	var buf bytes.Buffer
	if err := WriteChampSim(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 2*ChampSimRecordSize {
		t.Fatalf("encoded %d bytes, want 2 records", buf.Len())
	}
	got, err := ReadChampSim(&buf, "rt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip %d accesses, want 2", got.Len())
	}
	if got.Accesses[0].PC != 0x400000 || got.Accesses[0].Kind != Load {
		t.Fatalf("load lost: %+v", got.Accesses[0])
	}
	if got.Accesses[1].Kind != Store || got.Accesses[1].Addr != 0x9000 {
		t.Fatalf("store lost: %+v", got.Accesses[1])
	}
}

func TestChampSimGzipRoundTrip(t *testing.T) {
	orig := New("gz", 1)
	orig.Append(Access{PC: 1, Addr: 0x1000, Kind: Load})
	var raw bytes.Buffer
	if err := WriteChampSim(&raw, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChampSim(bytes.NewReader(gzipBytes(t, raw.Bytes())), "gz", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Accesses[0].Addr != 0x1000 {
		t.Fatalf("gzip round trip: %+v", got.Accesses)
	}
}

// TestReadChampSimGzipRejectsRaw: once the gzip magic leads, the input is
// read as gzip, so raw records behind the magic fail to open rather than
// decode.
func TestReadChampSimGzipRejectsRaw(t *testing.T) {
	raw := buildChampSimRecord(0x400100, nil, []uint64{0x2000})
	_, err := ReadChampSim(bytes.NewReader(append([]byte{0x1f, 0x8b}, raw...)), "x", 0)
	if want := "trace: opening gzip ChampSim trace: gzip: invalid header"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// readFixture loads a testdata file.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return b
}

// goldenAccesses parses mini.golden: one "pc addr kind" line per access,
// produced by the independent fixture generator (not by this package).
func goldenAccesses(t *testing.T) []Access {
	t.Helper()
	var out []Access
	sc := bufio.NewScanner(bytes.NewReader(readFixture(t, "mini.golden")))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			t.Fatalf("golden line %q", sc.Text())
		}
		pc, err := strconv.ParseUint(f[0], 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := strconv.ParseUint(f[1], 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		kind := Load
		if f[2] == "store" {
			kind = Store
		}
		out = append(out, Access{PC: pc, Addr: addr, Kind: kind})
	}
	return out
}

func sameAccesses(t *testing.T, got, want []Access) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("access %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func gzipBytes(t testing.TB, data []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	gw := gzip.NewWriter(&b)
	if _, err := gw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// randomChampSim builds a seeded random record stream exercising every slot
// combination, including records with no memory operands and junk in the
// ignored instruction-info bytes.
func randomChampSim(r *rand.Rand, records int) []byte {
	buf := make([]byte, 0, records*ChampSimRecordSize)
	var rec [ChampSimRecordSize]byte
	for i := 0; i < records; i++ {
		for j := range rec {
			rec[j] = byte(r.Intn(256)) // junk everywhere first
		}
		binary.LittleEndian.PutUint64(rec[0:8], r.Uint64())
		for j := 0; j < 2; j++ {
			a := uint64(0)
			if r.Intn(3) == 0 {
				a = r.Uint64() | 1
			}
			binary.LittleEndian.PutUint64(rec[16+8*j:24+8*j], a)
		}
		for j := 0; j < 4; j++ {
			a := uint64(0)
			if r.Intn(2) == 0 {
				a = r.Uint64() | 1
			}
			binary.LittleEndian.PutUint64(rec[32+8*j:40+8*j], a)
		}
		buf = append(buf, rec[:]...)
	}
	return buf
}

// referenceChampSim is the expectation ReadChampSim is checked against,
// computed without its chunked loop: decompress the whole input up front,
// then walk the memory slots of every complete record until the bound. It
// returns the decompressed bytes, the expected accesses and the expected
// error text ("" for success).
func referenceChampSim(data []byte, maxAccesses int) (raw []byte, want []Access, wantErr string) {
	raw = data
	var srcErr error
	switch {
	case len(data) >= 2 && data[0] == 0xfd && data[1] == '7':
		return nil, nil, "trace: xz-compressed ChampSim trace; decompress externally first (xz -d)"
	case len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b:
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, nil, "trace: opening gzip ChampSim trace: " + err.Error()
		}
		raw, srcErr = io.ReadAll(zr)
	}
	for off := 0; off+ChampSimRecordSize <= len(raw); off += ChampSimRecordSize {
		ip := binary.LittleEndian.Uint64(raw[off:])
		for slot := 0; slot < 6; slot++ {
			addr := binary.LittleEndian.Uint64(raw[off+16+8*slot:])
			if addr == 0 {
				continue
			}
			kind := Load
			if slot < 2 {
				kind = Store
			}
			want = append(want, Access{PC: ip, Addr: addr, Kind: kind})
			if maxAccesses > 0 && len(want) == maxAccesses {
				return raw, want, ""
			}
		}
	}
	switch {
	case srcErr != nil:
		return raw, nil, srcErr.Error()
	case len(raw)%ChampSimRecordSize != 0:
		return raw, nil, fmt.Sprintf("trace: truncated ChampSim record at access %d", len(want))
	}
	return raw, want, ""
}

// checkAgainstReference decodes data with ReadChampSim and requires the
// reference's accesses or error text.
func checkAgainstReference(t *testing.T, data []byte, maxAccesses int) {
	t.Helper()
	_, want, wantErr := referenceChampSim(data, maxAccesses)
	got, err := ReadChampSim(bytes.NewReader(data), "ref", maxAccesses)
	if wantErr != "" {
		if err == nil || err.Error() != wantErr {
			t.Fatalf("max=%d: err = %v, want %q", maxAccesses, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("max=%d: %v", maxAccesses, err)
	}
	if got.Name != "ref" {
		t.Fatalf("name %q, want %q", got.Name, "ref")
	}
	sameAccesses(t, got.Accesses, want)
}

// TestReadChampSimGoldenFixtures: the raw and gzip fixtures decode to the
// independently generated golden accesses across bounds; a truncated tail
// fails with the access count decoded before it unless a bound stops the
// decode first; a corrupt gzip body passes the decompressor's error through.
func TestReadChampSimGoldenFixtures(t *testing.T) {
	golden := goldenAccesses(t)
	if len(golden) != 15 {
		t.Fatalf("golden fixture has %d accesses, want 15", len(golden))
	}
	for _, fixture := range []string{"mini.champsim", "mini.champsim.gz"} {
		for _, max := range []int{-1, 0, 3, 15, 100} {
			tr, err := ReadChampSim(bytes.NewReader(readFixture(t, fixture)), fixture, max)
			if err != nil {
				t.Fatalf("%s max=%d: %v", fixture, max, err)
			}
			want := golden
			if max > 0 && max < len(want) {
				want = want[:max]
			}
			sameAccesses(t, tr.Accesses, want)
		}
	}

	// truncated.champsim is mini.champsim cut 24 bytes into its 8th record:
	// seven whole records, which hold the first 14 golden accesses.
	truncated := readFixture(t, "truncated.champsim")
	if !bytes.HasPrefix(readFixture(t, "mini.champsim"), truncated) || len(truncated) != 7*ChampSimRecordSize+24 {
		t.Fatal("truncated.champsim is not mini.champsim cut inside its 8th record")
	}
	_, err := ReadChampSim(bytes.NewReader(truncated), "t", 0)
	if want := "trace: truncated ChampSim record at access 14"; err == nil || err.Error() != want {
		t.Fatalf("truncated: err = %v, want %q", err, want)
	}
	tr, err := ReadChampSim(bytes.NewReader(truncated), "t", 3)
	if err != nil {
		t.Fatalf("truncated max=3: %v", err)
	}
	sameAccesses(t, tr.Accesses, golden[:3])

	corrupt := readFixture(t, "corrupt.champsim.gz")
	zr, err := gzip.NewReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	_, gzErr := io.ReadAll(zr)
	if gzErr == nil {
		t.Fatal("corrupt.champsim.gz decompresses cleanly")
	}
	if _, err := ReadChampSim(bytes.NewReader(corrupt), "c", 0); err == nil || err.Error() != gzErr.Error() {
		t.Fatalf("corrupt gzip: err = %v, want %q", err, gzErr)
	}
}

// TestReadChampSimMatchesReference sweeps seeded random traces, raw and
// gzip, across record counts, tail cuts (including mid-record) and bounds.
func TestReadChampSimMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, records := range []int{0, 1, 2, 7, 100, 5000} {
		data := randomChampSim(r, records)
		for _, cut := range []int{0, 1, 17, 63} { // bytes chopped off the tail
			if cut > len(data) {
				continue
			}
			chopped := data[:len(data)-cut]
			compressed := gzipBytes(t, chopped)
			for _, max := range []int{-3, -1, 0, 1, 2, 5, 64, 1 << 20} {
				checkAgainstReference(t, chopped, max)
				checkAgainstReference(t, compressed, max)
			}
		}
	}
}

// TestReadChampSimEdgeInputs pins the outcome of inputs too short or
// foreign to hold a record: empty sources are empty traces, xz is refused,
// a gzip magic without a valid header fails as gzip, and a lone byte is a
// truncated record.
func TestReadChampSimEdgeInputs(t *testing.T) {
	for _, c := range []struct {
		name, data, wantErr string
	}{
		{"empty", "", ""},
		{"empty-gzip", string(gzipBytes(t, nil)), ""},
		{"xz", "\xfd7zXZ\x00", "trace: xz-compressed ChampSim trace; decompress externally first (xz -d)"},
		{"gzip-bad-header", "\x1f\x8b\xde\xad\xbe\xef\x00\x00\x00\x00", "trace: opening gzip ChampSim trace: gzip: invalid header"},
		{"gzip-short-header", "\x1f\x8b\xde\xad\xbe\xef", "trace: opening gzip ChampSim trace: unexpected EOF"},
		{"gzip-magic-only", "\x1f\x8b", "trace: opening gzip ChampSim trace: unexpected EOF"},
		{"one-byte", "\x01", "trace: truncated ChampSim record at access 0"},
	} {
		tr, err := ReadChampSim(strings.NewReader(c.data), c.name, 0)
		switch {
		case c.wantErr != "" && (err == nil || err.Error() != c.wantErr):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr == "" && tr.Len() != 0:
			t.Errorf("%s: got %d accesses, want none", c.name, tr.Len())
		}
	}
}

// stutterReader returns one byte per Read call, then the wrapped error —
// the worst-case refill pattern.
type stutterReader struct {
	data []byte
	err  error
}

func (r *stutterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}

// tailErrReader returns all data and a non-EOF error in the SAME Read call.
type tailErrReader struct {
	data []byte
	err  error
	done bool
}

func (r *tailErrReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		r.done = true
		return n, r.err
	}
	return n, nil
}

// TestReadChampSimSourceErrors: a source error passes through unchanged,
// but only after the records read before it are decoded — so a bound the
// buffered records satisfy succeeds even when the same Read returned the
// error.
func TestReadChampSimSourceErrors(t *testing.T) {
	data := readFixture(t, "mini.champsim")
	golden := goldenAccesses(t)
	boom := errors.New("disk on fire")
	for name, mk := range map[string]func(err error) io.Reader{
		"stutter":  func(err error) io.Reader { return &stutterReader{data: data, err: err} },
		"tail-err": func(err error) io.Reader { return &tailErrReader{data: data, err: err} },
	} {
		tr, err := ReadChampSim(mk(io.EOF), "w", 0)
		if err != nil {
			t.Fatalf("%s, clean EOF: %v", name, err)
		}
		sameAccesses(t, tr.Accesses, golden)

		if _, err := ReadChampSim(mk(boom), "w", 0); err != boom {
			t.Fatalf("%s: err = %v, want %v", name, err, boom)
		}
		tr, err = ReadChampSim(mk(boom), "w", len(golden))
		if err != nil {
			t.Fatalf("%s, bound met before the error: %v", name, err)
		}
		sameAccesses(t, tr.Accesses, golden)
	}
}

// BenchmarkReadChampSim decodes 65,536 random records (4 MiB) from memory.
func BenchmarkReadChampSim(b *testing.B) {
	data := randomChampSim(rand.New(rand.NewSource(3)), 1<<16)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadChampSim(bytes.NewReader(data), "bench", 0); err != nil {
			b.Fatal(err)
		}
	}
}
