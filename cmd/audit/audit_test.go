package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glider/internal/experiments"
	"glider/internal/ledger"
)

// The end-to-end audit contract (the issue's corruption drill): anchor real
// simulation results to a disk ledger, then prove that the auditor (a) passes
// a pristine ledger and reproduces an anchored result bit for bit, (b) after
// a single flipped byte, exits nonzero naming the damaged batch/leaf/artifact,
// while the uncorrupted sibling still verifies and re-simulates, and (c)
// refuses a file whose framing checksum no longer matches.

// auditCell pins the two real cells the tests anchor. 20k accesses keeps a
// run in the tens of milliseconds.
type auditCell struct {
	workload string
	policy   string
	accesses int
	seed     int64
}

var auditCells = []auditCell{
	{"omnetpp", "lru", 20000, 1},
	{"omnetpp", "lru", 20000, 2},
}

// buildLedger anchors auditCells into a fresh disk ledger exactly the way
// gliderd's executor does — appending each RunCell result under
// LedgerKindCell — and returns the path plus the content address of each
// cell's result in order.
func buildLedger(t *testing.T) (string, []string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.ledger")
	b, err := ledger.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.New(b, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range auditCells {
		res, err := experiments.RunCell(context.Background(), c.workload, c.policy, c.accesses, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := led.Append(experiments.LedgerKindCell, json.RawMessage(raw)); err != nil {
			t.Fatal(err)
		}
		id, err := ledger.ArtifactIDFor(experiments.LedgerKindCell, raw)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id.String())
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ids
}

// audit runs the CLI in-process, returning exit code, stdout, and stderr.
func audit(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	t.Logf("audit %v -> %d\nstdout: %sstderr: %s", args, code, stdout.String(), stderr.String())
	return code, stdout.String(), stderr.String()
}

// corrupt flips one digit of the victim record's `"seed":N` parameter — a
// single-byte mutation that keeps the record canonical JSON, so only the
// content hash betrays it. With fixCRC the frame checksum is recomputed in
// place (an attacker patching the file consistently); without it the framing
// itself catches the damage first.
func corrupt(t *testing.T, path string, victimSeed int64, fixCRC bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte(fmt.Sprintf(`"seed":%d`, victimSeed))
	off := 0
	for off < len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+8 : off+8+n]
		if payload[0] == 'A' && bytes.Contains(payload, marker) {
			i := bytes.Index(payload, []byte(`"accesses":`))
			if i < 0 {
				t.Fatalf("victim record has no accesses field: %s", payload)
			}
			digit := i + len(`"accesses":`)
			payload[digit] = payload[digit]%8 + '1' // '2' -> '3': still a digit, still canonical JSON
			if fixCRC {
				binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(payload))
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += 8 + n
	}
	t.Fatalf("no artifact record with %s in %s", marker, path)
}

func TestAuditPristineLedger(t *testing.T) {
	path, ids := buildLedger(t)

	code, out, _ := audit(t, "verify", "-ledger", path)
	if code != 0 {
		t.Fatalf("verify on pristine ledger: exit %d", code)
	}
	if !strings.Contains(out, "audit: ok: 2 artifact(s)") {
		t.Fatalf("verify output: %s", out)
	}

	code, out, _ = audit(t, "root", "-ledger", path)
	if code != 0 {
		t.Fatalf("root: exit %d", code)
	}
	var head ledger.ChainState
	if err := json.Unmarshal([]byte(out), &head); err != nil {
		t.Fatal(err)
	}
	if head.Artifacts != 2 || head.Batches != 1 || head.Pending != 0 {
		t.Fatalf("root %+v, want 2 artifacts in 1 batch", head)
	}

	code, out, _ = audit(t, "list", "-ledger", path)
	if code != 0 {
		t.Fatalf("list: exit %d", code)
	}
	for _, id := range ids {
		if !strings.Contains(out, id) {
			t.Fatalf("list omits artifact %s:\n%s", id, out)
		}
	}
	if strings.Contains(out, "DAMAGED") {
		t.Fatalf("list reports damage on a pristine ledger:\n%s", out)
	}

	code, out, _ = audit(t, "prove", "-ledger", path, "-artifact", ids[0])
	if code != 0 {
		t.Fatalf("prove: exit %d", code)
	}
	var p ledger.Proof
	if err := json.Unmarshal([]byte(out), &p); err != nil {
		t.Fatal(err)
	}
	if p.Artifact != ids[0] || p.Verify() != nil {
		t.Fatalf("prove returned a bad proof: %+v", p)
	}

	// The reproducibility anchor: the recorded simulation re-runs to the
	// exact anchored bytes.
	code, out, _ = audit(t, "verify", "-ledger", path, "-artifact", ids[0], "-resim")
	if code != 0 {
		t.Fatalf("verify -resim: exit %d", code)
	}
	if !strings.Contains(out, "inclusion proof ok") || !strings.Contains(out, "re-simulation bit-identical") {
		t.Fatalf("verify -resim output: %s", out)
	}
}

func TestAuditDetectsSingleByteCorruption(t *testing.T) {
	path, ids := buildLedger(t)
	// Damage the seed-2 cell's record; seed 1 is the intact sibling.
	corrupt(t, path, 2, true)
	sibling, victim := ids[0], ids[1]

	// Full-ledger verify fails and names the damaged batch, leaf, and
	// artifact.
	code, _, errOut := audit(t, "verify", "-ledger", path)
	if code == 0 {
		t.Fatal("verify passed a corrupted ledger")
	}
	if !strings.Contains(errOut, "PROBLEM") || !strings.Contains(errOut, "leaf") || !strings.Contains(errOut, victim) {
		t.Fatalf("verify did not attribute the damage:\n%s", errOut)
	}
	if strings.Contains(errOut, sibling) {
		t.Fatalf("verify implicated the intact sibling:\n%s", errOut)
	}

	// Targeted verify on the victim fails on content.
	code, _, errOut = audit(t, "verify", "-ledger", path, "-artifact", victim)
	if code == 0 {
		t.Fatal("targeted verify passed a damaged artifact")
	}
	if !strings.Contains(errOut, "content damaged") {
		t.Fatalf("targeted verify stderr:\n%s", errOut)
	}

	// The intact sibling still proves and re-simulates bit-identically:
	// the chain committed to leaf IDs, so one damaged leaf does not take
	// its neighbours' evidence down with it.
	code, out, _ := audit(t, "verify", "-ledger", path, "-artifact", sibling, "-resim")
	if code != 0 {
		t.Fatalf("sibling verify -resim: exit %d", code)
	}
	if !strings.Contains(out, "inclusion proof ok") || !strings.Contains(out, "re-simulation bit-identical") {
		t.Fatalf("sibling verify -resim output: %s", out)
	}
	if code, _, _ := audit(t, "prove", "-ledger", path, "-artifact", sibling); code != 0 {
		t.Fatalf("sibling prove: exit %d", code)
	}

	// list shows exactly the victim as damaged.
	_, out, _ = audit(t, "list", "-ledger", path)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		damaged := strings.Contains(line, "DAMAGED")
		isVictim := strings.Contains(line, victim)
		if damaged != isVictim {
			t.Fatalf("list line misreports damage: %q (victim %s)", line, victim)
		}
	}
}

func TestAuditRefusesCRCDamage(t *testing.T) {
	path, _ := buildLedger(t)
	// Flip the byte without patching the frame checksum: the framing layer
	// itself must refuse the file before any chain logic runs.
	corrupt(t, path, 2, false)
	code, _, errOut := audit(t, "verify", "-ledger", path)
	if code == 0 {
		t.Fatal("verify opened a CRC-damaged ledger")
	}
	if !strings.Contains(errOut, "CRC") {
		t.Fatalf("stderr does not mention the CRC failure:\n%s", errOut)
	}
}

func TestAuditUsageErrors(t *testing.T) {
	// An empty (but valid) ledger file, for errors detected after the open.
	empty := filepath.Join(t.TempDir(), "empty.ledger")
	if b, err := ledger.OpenDisk(empty); err != nil {
		t.Fatal(err)
	} else if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                          // no command
		{"frobnicate"},              // unknown command
		{"verify"},                  // missing -ledger
		{"prove", "-ledger", empty}, // prove without -artifact
		{"verify", "-bogus"},        // unknown flag
	}
	for _, args := range cases {
		if code, _, _ := audit(t, args...); code != 2 {
			t.Fatalf("audit %v: exit %d, want usage error 2", args, code)
		}
	}
	// A missing ledger file is a runtime failure, not a usage error.
	missing := filepath.Join(t.TempDir(), "absent.ledger")
	if code, _, _ := audit(t, "verify", "-ledger", missing); code != 1 {
		t.Fatalf("missing ledger file: want exit 1")
	}
	// A malformed artifact ID fails the targeted audit.
	path, _ := buildLedger(t)
	if code, _, errOut := audit(t, "verify", "-ledger", path, "-artifact", "zz"); code != 1 {
		t.Fatalf("bad artifact id: exit %d (%s)", code, errOut)
	}
}
