package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"glider/internal/trace"
)

// The champsim scheme is this package's ChampSim scanner: it streams a file
// through trace.ReadChampSim and stops at the n accesses asked for. These
// tests hold it to the one-shot decode of the same bytes held in memory.

// readFixture loads one of the trace package's ChampSim fixtures.
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "testdata", name))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return b
}

// goldenAccesses parses mini.golden: one "pc addr kind" line per access,
// produced by the independent fixture generator (not by the decoder).
func goldenAccesses(t *testing.T) []trace.Access {
	t.Helper()
	var out []trace.Access
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
		kind := trace.Load
		if f[2] == "store" {
			kind = trace.Store
		}
		out = append(out, trace.Access{PC: pc, Addr: addr, Kind: kind})
	}
	return out
}

// randomChampSim builds a seeded random record stream exercising every slot
// combination, including records with no memory operands and junk in the
// ignored instruction-info bytes.
func randomChampSim(r *rand.Rand, records int) []byte {
	buf := make([]byte, 0, records*trace.ChampSimRecordSize)
	var rec [trace.ChampSimRecordSize]byte
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

// writeTraceFile writes data to a fresh file and returns its path.
func writeTraceFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.champsim")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// stream decodes n accesses of the file at path through the champsim scheme.
func stream(t testing.TB, path string, n int) (*trace.Trace, error) {
	t.Helper()
	spec, err := Parse("champsim(file=" + path + ")")
	if err != nil {
		t.Fatal(err) // parse-time only stats the file
	}
	return spec.GenerateE(n, 1)
}

// oneShot is what the scheme must return for n accesses of a file holding
// data, derived from one trace.ReadChampSim call over the whole buffer: a
// negative n is refused, a decode error names the file, an empty decode is
// refused, and a decode shorter than n repeats from its start up to exactly
// n accesses.
func oneShot(path string, data []byte, n int) (*trace.Trace, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative trace length %d", n)
	}
	name := "champsim(file=" + path + ")"
	tr, err := trace.ReadChampSim(bytes.NewReader(data), name, n)
	if err != nil {
		return nil, fmt.Errorf("ingest: champsim trace %s: %w", path, err)
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("ingest: champsim trace %s contains no memory accesses", path)
	}
	out := trace.New(name, n)
	for i := 0; i < tr.Len() || i < n; i++ {
		out.Append(tr.Accesses[i%tr.Len()])
	}
	return out, nil
}

// diffOneShot requires the scheme's streamed decode of the file at path,
// which holds data, to equal oneShot's trace or error text.
func diffOneShot(t testing.TB, path string, data []byte, n int) {
	t.Helper()
	got, gotErr := stream(t, path, n)
	want, wantErr := oneShot(path, data, n)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("n=%d: stream err %v, one-shot err %v", n, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("n=%d: stream err %q, one-shot err %q", n, gotErr, wantErr)
		}
		return
	}
	if got.Name != want.Name {
		t.Fatalf("n=%d: name %q, one-shot %q", n, got.Name, want.Name)
	}
	if len(got.Accesses) != len(want.Accesses) {
		t.Fatalf("n=%d: stream %d accesses, one-shot %d", n, len(got.Accesses), len(want.Accesses))
	}
	for i := range got.Accesses {
		if got.Accesses[i] != want.Accesses[i] {
			t.Fatalf("n=%d: access %d: %+v vs %+v", n, i, got.Accesses[i], want.Accesses[i])
		}
	}
}

// TestScannerGoldenFixture: the raw and gzip fixtures decode through the
// scheme to the independently generated golden accesses.
func TestScannerGoldenFixture(t *testing.T) {
	want := goldenAccesses(t)
	if len(want) != 15 {
		t.Fatalf("golden fixture has %d accesses, want 15", len(want))
	}
	for _, fixture := range []string{"mini.champsim", "mini.champsim.gz"} {
		path := filepath.Join("..", "testdata", fixture)
		tr, err := stream(t, path, 0)
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		if tr.Name != "champsim(file="+path+")" {
			t.Fatalf("%s: name %q", fixture, tr.Name)
		}
		sameAccesses(t, tr.Accesses, want)
	}
}

func TestStreamVsOneShotDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// The last bound is past every trace's end, so it cycle-extends.
	bounds := []int{-1, 0, 1, 5, 64, 1 << 16}
	for _, records := range []int{0, 1, 2, 7, 100, 5000} {
		data := randomChampSim(r, records)
		for _, cut := range []int{0, 1, 17, 63} { // bytes chopped off the tail
			if cut > len(data) {
				continue
			}
			chopped := data[:len(data)-cut]
			compressed := gzipBytes(t, chopped)
			rawPath, gzPath := writeTraceFile(t, chopped), writeTraceFile(t, compressed)
			for _, n := range bounds {
				diffOneShot(t, rawPath, chopped, n)
				diffOneShot(t, gzPath, compressed, n)
			}
		}
	}
}

func TestStreamVsOneShotGoldenFixtures(t *testing.T) {
	fixture := func(name string) (string, []byte) {
		return filepath.Join("..", "testdata", name), readFixture(t, name)
	}
	for _, name := range []string{"mini.champsim", "mini.champsim.gz"} {
		path, data := fixture(name)
		for _, n := range []int{-1, 0, 3, 15, 100} {
			diffOneShot(t, path, data, n)
		}
	}
	// Truncated tail: both report the same truncation error...
	path, data := fixture("truncated.champsim")
	diffOneShot(t, path, data, 0)
	// ...unless the bound stops both before they reach the corrupt tail.
	diffOneShot(t, path, data, 3)
	// Corrupt gzip body: identical error pass-through.
	path, data = fixture("corrupt.champsim.gz")
	diffOneShot(t, path, data, 0)
}

// TestScannerAutoEmpty: an empty file, raw or gzip, sniffs as an empty
// trace rather than a format error, and the scheme refuses it as such.
func TestScannerAutoEmpty(t *testing.T) {
	for _, data := range [][]byte{nil, gzipBytes(t, nil)} {
		path := writeTraceFile(t, data)
		_, err := stream(t, path, 0)
		if want := "ingest: champsim trace " + path + " contains no memory accesses"; err == nil || err.Error() != want {
			t.Fatalf("%d-byte file: err = %v, want %q", len(data), err, want)
		}
	}
}

func TestScannerAutoRejectsXZ(t *testing.T) {
	path := writeTraceFile(t, []byte{0xfd, '7', 'z', 'X', 'Z', 0x00})
	_, err := stream(t, path, 0)
	want := "ingest: champsim trace " + path + ": trace: xz-compressed ChampSim trace; decompress externally first (xz -d)"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestScannerGzipRejectsRaw: once the gzip magic leads, the file is read as
// gzip, so raw records behind the magic fail to open rather than decode.
func TestScannerGzipRejectsRaw(t *testing.T) {
	data := append([]byte{0x1f, 0x8b}, readFixture(t, "mini.champsim")...)
	path := writeTraceFile(t, data)
	_, err := stream(t, path, 0)
	if err == nil || !strings.HasPrefix(err.Error(), "ingest: champsim trace "+path+": trace: opening gzip ChampSim trace: ") {
		t.Fatalf("err = %v, want the gzip opening error", err)
	}
	diffOneShot(t, path, data, 0)
}

// TestCollectRespectsCapConvention: n = 0 collects the whole file, a
// negative n is refused, and a positive n collects exactly n accesses — a
// prefix of the file's, repeated from its start once the file runs out.
func TestCollectRespectsCapConvention(t *testing.T) {
	data := randomChampSim(rand.New(rand.NewSource(1)), 50)
	path := writeTraceFile(t, data)
	want, err := trace.ReadChampSim(bytes.NewReader(data), "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := stream(t, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameAccesses(t, full.Accesses, want.Accesses)
	for _, n := range []int{-3, -1} {
		if _, err := stream(t, path, n); err == nil {
			t.Fatalf("n=%d accepted", n)
		}
	}
	l := len(full.Accesses)
	for _, n := range []int{1, 2, 3, 7, l - 1, l, l + 1, 2*l + 3} {
		tr, err := stream(t, path, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Accesses) != n {
			t.Fatalf("n=%d: got %d accesses", n, len(tr.Accesses))
		}
		for i, a := range tr.Accesses {
			if a != full.Accesses[i%l] {
				t.Fatalf("n=%d: access %d = %+v, want file access %d", n, i, a, i%l)
			}
		}
	}
}
