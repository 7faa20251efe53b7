package trace

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// FuzzReadChampSim checks the decoder against referenceChampSim on any
// bytes and bound: the same accesses or the same error text, never a panic.
func FuzzReadChampSim(f *testing.F) {
	// One well-formed record: ip plus one store and one load address.
	rec := make([]byte, ChampSimRecordSize)
	copy(rec[0:8], []byte{0x00, 0x10, 0x40, 0, 0, 0, 0, 0})
	rec[16] = 0x40 // destination_memory[0]
	rec[32] = 0x80 // source_memory[0]
	f.Add(rec, 1<<16)
	f.Add(rec[:ChampSimRecordSize-1], 1<<16) // truncated record
	f.Add([]byte{}, 1<<16)
	f.Add([]byte{}, 0)
	f.Add(bytes.Repeat([]byte{0}, ChampSimRecordSize), -1)
	f.Add(bytes.Repeat([]byte{0xff}, ChampSimRecordSize*3), 2)
	f.Add(bytes.Repeat([]byte{0xa5}, ChampSimRecordSize+17), 0) // truncated tail
	f.Add([]byte{0x1f, 0x8b, 0x00}, 0)                          // gzip magic, corrupt body
	f.Add([]byte{0xfd, '7', 'z'}, 0)                            // xz magic
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(append(append([]byte{}, rec...), rec...))
	zw.Close()
	f.Add(gz.Bytes(), 3) // two gzipped records, cut mid-record
	f.Fuzz(func(t *testing.T, data []byte, maxAccesses int) {
		if maxAccesses > 1<<20 || maxAccesses < -1<<20 {
			return // cap the materialized size, not the input space
		}
		tr, err := ReadChampSim(bytes.NewReader(data), "fuzz", maxAccesses)
		raw, want, wantErr := referenceChampSim(data, maxAccesses)
		if wantErr != "" {
			if err == nil || err.Error() != wantErr {
				t.Fatalf("err = %v, want %q", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("err = %v, want success", err)
		}
		// A record expands to at most 6 accesses, counted on the
		// decompressed bytes.
		if max := 6 * (len(raw) / ChampSimRecordSize); tr.Len() > max {
			t.Fatalf("decoded %d accesses from %d records", tr.Len(), len(raw)/ChampSimRecordSize)
		}
		if len(tr.Accesses) != len(want) {
			t.Fatalf("decoded %d accesses, reference %d", len(tr.Accesses), len(want))
		}
		for i := range want {
			if tr.Accesses[i] != want[i] {
				t.Fatalf("access %d = %+v, reference %+v", i, tr.Accesses[i], want[i])
			}
		}
	})
}
