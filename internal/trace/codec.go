package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary trace format:
//
//	magic   [8]byte  "GLTRACE1"
//	nameLen uint16
//	name    [nameLen]byte
//	count   uint64
//	count × { pc uint64, addr uint64, core uint8, kind uint8 }
//
// All integers are little-endian.

var binaryMagic = [8]byte{'G', 'L', 'T', 'R', 'A', 'C', 'E', '1'}

// ErrBadFormat is returned when decoding input that is not a valid trace.
var ErrBadFormat = errors.New("trace: bad format")

// WriteBinary encodes the trace in the binary trace format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	name := []byte(t.Name)
	if len(name) > 1<<16-1 {
		return fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(t.Accesses))); err != nil {
		return err
	}
	var rec [18]byte
	for _, a := range t.Accesses {
		binary.LittleEndian.PutUint64(rec[0:8], a.PC)
		binary.LittleEndian.PutUint64(rec[8:16], a.Addr)
		rec[16] = a.Core
		rec[17] = byte(a.Kind)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if !bytes.Equal(magic[:], binaryMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	var nameLen uint16
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	// The count header is untrusted input: cap the preallocation so a
	// corrupt or malicious header cannot demand count × 18 bytes up front.
	// The clamp happens in uint64 space — a count ≥ 2^63 converted to int
	// first would go negative, dodge the cap, and panic makeslice (found by
	// FuzzReadAuto). Append still grows the slice as records actually arrive.
	const maxCapHint = 1 << 20
	capHint := maxCapHint
	if count < maxCapHint {
		capHint = int(count)
	}
	t := New(string(name), capHint)
	var rec [18]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading access %d: %w", i, err)
		}
		t.Append(Access{
			PC:   binary.LittleEndian.Uint64(rec[0:8]),
			Addr: binary.LittleEndian.Uint64(rec[8:16]),
			Core: rec[16],
			Kind: Kind(rec[17]),
		})
	}
	return t, nil
}

// WriteText encodes the trace as one whitespace-separated record per line:
//
//	pc addr core kind
//
// with hexadecimal pc/addr. A header line carries the trace name.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s\n", t.Name); err != nil {
		return err
	}
	for _, a := range t.Accesses {
		if _, err := fmt.Fprintf(bw, "%x %x %d %d\n", a.PC, a.Addr, a.Core, uint8(a.Kind)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes a trace written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := New("", 0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "trace" {
				t.Name = fields[2]
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%w: line %d: want 4 fields, got %d", ErrBadFormat, lineNo, len(fields))
		}
		pc, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d pc: %v", ErrBadFormat, lineNo, err)
		}
		addr, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d addr: %v", ErrBadFormat, lineNo, err)
		}
		core, err := strconv.ParseUint(fields[2], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d core: %v", ErrBadFormat, lineNo, err)
		}
		kind, err := strconv.ParseUint(fields[3], 10, 8)
		if err != nil || Kind(kind) > Writeback {
			return nil, fmt.Errorf("%w: line %d kind: %q", ErrBadFormat, lineNo, fields[3])
		}
		t.Append(Access{PC: pc, Addr: addr, Core: uint8(core), Kind: Kind(kind)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
