package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Exported for the external test package (engine_wall_test.go), which needs
// packages that import cpu.
var (
	RefRun           = refRun
	RefRunFunctional = refRunFunctional
)

// CaptureDigest is the SHA-256 of c's per-access level bytes followed by
// each LLC writeback's PC, block and core, in order.
func CaptureDigest(c *Capture) string {
	h := sha256.New()
	h.Write(c.levels)
	var b [17]byte
	for _, w := range c.wbs {
		binary.LittleEndian.PutUint64(b[:8], w.pc)
		binary.LittleEndian.PutUint64(b[8:16], w.block)
		b[16] = w.core
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
