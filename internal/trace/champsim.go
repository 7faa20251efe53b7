package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// ChampSim trace import: the paper evaluates with the CRC2 framework, which
// replays ChampSim instruction traces. This decoder converts that format
// into this package's access stream so real SimPoint traces can be run
// through the simulator in place of the synthetic workloads.
//
// A ChampSim record is 64 bytes:
//
//	ip                    uint64
//	is_branch             uint8
//	branch_taken          uint8
//	destination_registers [2]uint8
//	source_registers      [4]uint8
//	destination_memory    [2]uint64   (store addresses; 0 = unused)
//	source_memory         [4]uint64   (load addresses; 0 = unused)
//
// Each non-zero memory slot becomes one Access with the instruction's IP as
// the PC. Instructions without memory operands contribute nothing (the
// cache simulator consumes only memory references).

// ChampSimRecordSize is the fixed record size in bytes.
const ChampSimRecordSize = 64

// champSimChunkBytes is ReadChampSim's read buffer: 4096 records. Besides
// the returned trace (and a gzip decompressor's window), it is all the
// decoder holds, whatever the file size.
const champSimChunkBytes = 4096 * ChampSimRecordSize

// ReadChampSim decodes a ChampSim instruction trace, raw or gzip-compressed
// (sniffed from the leading bytes). An empty source is an empty trace, and an
// xz-compressed one is refused: decoding it as raw records would silently
// produce garbage accesses.
//
// maxAccesses ≤ 0 reads the whole trace. A positive bound is exact: decoding
// stops at exactly maxAccesses accesses even when that lands mid-record, and
// nothing past the record that completes the bound is read or validated, so
// memory is bounded by maxAccesses rather than by the file. Records read
// before a source error are decoded before the error is reported.
func ReadChampSim(r io.Reader, name string, maxAccesses int) (*Trace, error) {
	src, err := champSimSource(r)
	if err != nil {
		return nil, err
	}
	capHint := 1 << 16
	if maxAccesses > 0 && maxAccesses < capHint {
		capHint = maxAccesses
	}
	t := New(name, capHint)
	buf := make([]byte, champSimChunkBytes)
	var pos, end int // buf[pos:end] holds the bytes not yet decoded
	// srcErr holds the source's terminal error (io.EOF included) until the
	// whole records buffered ahead of it are decoded.
	var srcErr error
	for {
		for ; end-pos >= ChampSimRecordSize; pos += ChampSimRecordSize {
			rec := buf[pos : pos+ChampSimRecordSize]
			ip := binary.LittleEndian.Uint64(rec)
			// Six memory slots from offset 16: two stores, then four loads.
			for slot := 0; slot < 6; slot++ {
				addr := binary.LittleEndian.Uint64(rec[16+8*slot:])
				if addr == 0 {
					continue
				}
				kind := Load
				if slot < 2 {
					kind = Store
				}
				t.Append(Access{PC: ip, Addr: addr, Kind: kind})
				if capReached(t.Len(), maxAccesses) {
					return t, nil
				}
			}
		}
		end = copy(buf, buf[pos:end])
		pos = 0
		for end < ChampSimRecordSize && srcErr == nil {
			var n int
			n, srcErr = src.Read(buf[end:])
			end += n
		}
		if end < ChampSimRecordSize {
			switch {
			case srcErr == io.EOF && end == 0:
				return t, nil
			case srcErr == io.EOF:
				return nil, fmt.Errorf("trace: truncated ChampSim record at access %d", t.Len())
			default:
				return nil, srcErr
			}
		}
	}
}

// champSimSource sniffs r's leading bytes and returns the reader of its raw
// records: r itself, or a gzip decompressor over it.
func champSimSource(r io.Reader) (io.Reader, error) {
	var head [2]byte
	n, err := io.ReadFull(r, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	joined := io.MultiReader(bytes.NewReader(head[:n]), r)
	if n == 2 && head[0] == 0xfd && head[1] == '7' {
		return nil, fmt.Errorf("trace: xz-compressed ChampSim trace; decompress externally first (xz -d)")
	}
	if n == 2 && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(joined)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip ChampSim trace: %w", err)
		}
		return gz, nil
	}
	return joined, nil
}

// capReached reports whether a decoder that has produced n accesses has hit
// the maxAccesses bound (≤ 0 means unlimited).
func capReached(n, maxAccesses int) bool { return maxAccesses > 0 && n >= maxAccesses }

// WriteChampSim encodes the trace in ChampSim record format (one record per
// access, memory slot chosen by kind); it is the format tracegen writes.
// A record has no core, so every access reads back on core 0. Writebacks
// are skipped (ChampSim derives them from cache state), and an access to
// address 0 does not survive ReadChampSim, which takes a zero slot for an
// empty one. Generated workloads have none of the three.
func WriteChampSim(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var rec [ChampSimRecordSize]byte
	for _, a := range t.Accesses {
		for i := range rec {
			rec[i] = 0
		}
		binary.LittleEndian.PutUint64(rec[0:8], a.PC)
		switch a.Kind {
		case Store:
			binary.LittleEndian.PutUint64(rec[16:24], a.Addr)
		case Load:
			binary.LittleEndian.PutUint64(rec[32:40], a.Addr)
		default:
			continue
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
