package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// Compressed trace support: binary traces compress ~4-6× with gzip, which
// matters at paper scale (a billion-access trace is ~18 GB raw).

// WriteBinaryGzip writes the binary format through a gzip compressor.
func WriteBinaryGzip(w io.Writer, t *Trace) error {
	gz := gzip.NewWriter(w)
	if err := WriteBinary(gz, t); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// ReadAuto decodes a trace in any supported container: gzip-compressed
// binary, raw binary, or text — detected by sniffing the leading bytes.
func ReadAuto(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("trace: sniffing format: %w", err)
	}
	// gzip magic.
	if head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		return ReadBinary(gz)
	}
	headMagic, err := br.Peek(len(binaryMagic))
	if err == nil && bytes.Equal(headMagic, binaryMagic[:]) {
		return ReadBinary(br)
	}
	return ReadText(br)
}
