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

// corrupt flips one digit of the victim record's `"accesses":N` parameter
// (the victim is the cell run with seed victimSeed) — a single-byte mutation
// that keeps the record canonical JSON, so only the content hash betrays
// it. With fixCRC the frame checksum is recomputed in place (an attacker
// patching the file consistently); without it the framing itself catches
// the damage first.
func corrupt(t *testing.T, path string, victimSeed int64, fixCRC bool) {
	t.Helper()
	forge(t, path, fmt.Sprintf(`"seed":%d`, victimSeed), `"accesses":`, fixCRC)
}

// forge flips the first digit after field in the first artifact record
// that contains marker, patching the frame checksum when fixCRC is set.
func forge(t *testing.T, path, marker, field string, fixCRC bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for off < len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+8 : off+8+n]
		if payload[0] == 'A' && bytes.Contains(payload, []byte(marker)) {
			i := bytes.Index(payload, []byte(field))
			if i < 0 {
				t.Fatalf("victim record has no %s field: %s", field, payload)
			}
			digit := i + len(field)
			payload[digit] = payload[digit]%8 + '1' // '2' -> '3': still a digit
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

// appendTo reopens the ledger at path through ledger.New, as every recorder
// does, appends payload under kind, and returns the artifact ID.
func appendTo(t *testing.T, path, kind string, payload any) string {
	t.Helper()
	b, err := ledger.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.New(b, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := led.Append(kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return a.ID.String()
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
		// -resim without -artifact
		{"verify", "-ledger", empty, "-resim"},
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

// TestAuditResimulatesZoo anchors a one-workload zoo next to the audit
// cells and requires -resim to reproduce it bit for bit; a zoo anchored
// with a forged cell, a zoo cell forged after anchoring (CRC patched) and
// a pruned sweep must all fail.
func TestAuditResimulatesZoo(t *testing.T) {
	path, _ := buildLedger(t)
	// Seed 3 is no audit cell's seed, so the zoo is the record forge finds.
	cfg := experiments.Config{Accesses: 20000, Seed: 3}
	z, err := experiments.RunZoo(cfg, []string{"zipf(objects=65536,skew=0.9)"})
	if err != nil {
		t.Fatal(err)
	}
	zoo := appendTo(t, path, experiments.LedgerKindZoo, z)
	lie := z.Sweep
	lie.Cells = append([]experiments.SweepCell(nil), z.Cells...)
	lie.Cells[0].LLCMissRate += 0.01
	forged := appendTo(t, path, experiments.LedgerKindZoo, experiments.Zoo{Sweep: lie})
	sweep := appendTo(t, path, experiments.LedgerKindSweep, lie)

	code, out, _ := audit(t, "verify", "-ledger", path, "-artifact", zoo, "-resim")
	if code != 0 || !strings.Contains(out, "re-simulation bit-identical") {
		t.Fatalf("zoo verify -resim: exit %d: %s", code, out)
	}
	for _, c := range []struct{ id, want string }{
		{forged, "diverged"},
		{sweep, "estimator"},
	} {
		if code, _, errOut := audit(t, "verify", "-ledger", path, "-artifact", c.id, "-resim"); code != 1 || !strings.Contains(errOut, c.want) {
			t.Fatalf("verify -resim %s: exit %d, want 1 and %q: %s", c.id, code, c.want, errOut)
		}
	}

	forge(t, path, `"seed":3`, `"llc_miss_rate":`, true)
	code, _, errOut := audit(t, "verify", "-ledger", path, "-artifact", zoo, "-resim")
	if code != 1 || !strings.Contains(errOut, "content damaged") {
		t.Fatalf("forged zoo cell: exit %d: %s", code, errOut)
	}
}

// TestAuditRefusesDuplicateArtifact writes a log that records one artifact
// twice, under a batch whose root and chain link are recomputed over both
// leaves. ledger.New refuses such a log, so audit verify must fail it too.
func TestAuditRefusesDuplicateArtifact(t *testing.T) {
	raw := json.RawMessage(`{"seq":1}`)
	data, err := ledger.EncodeArtifact(experiments.LedgerKindCell, raw)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ledger.ArtifactIDFor(experiments.LedgerKindCell, raw)
	if err != nil {
		t.Fatal(err)
	}
	root := ledger.MerkleRoot([]ledger.ID{id, id})
	batch, err := ledger.CanonicalJSON(map[string]any{
		"index":  0,
		"leaves": []string{id.String(), id.String()},
		"root":   root.String(),
		"prev":   ledger.ID{}.String(),
		"chain":  ledger.ChainHash(ledger.ID{}, root).String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dup.ledger")
	b, err := ledger.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []ledger.Record{
		{Type: ledger.RecordArtifact, Data: data},
		{Type: ledger.RecordArtifact, Data: data},
		{Type: ledger.RecordBatch, Data: batch},
	} {
		if err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ledger.New(b, ledger.Options{}); err == nil {
		t.Fatal("ledger.New opened a log with a duplicated artifact")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := audit(t, "verify", "-ledger", path)
	if code != 1 || !strings.Contains(errOut, "record 1 artifact "+id.String()+": duplicate") {
		t.Fatalf("verify on a duplicated artifact: exit %d: %s", code, errOut)
	}
}

// TestAuditRootAfterChainDamage forges batch 1's root in a 3-batch ledger,
// patching the frame checksum: `audit root` must still report the head of
// the prefix that verified, batch 0's, and exit 1 on the problem.
func TestAuditRootAfterChainDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	b, err := ledger.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.New(b, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var head0 ledger.ChainState
	for i := 0; i < 3; i++ {
		if _, err := led.Append(experiments.LedgerKindCell, map[string]int{"seq": i}); err != nil {
			t.Fatal(err)
		}
		if _, err := led.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			head0 = led.Root()
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge one hex digit of the second batch record's root, CRC patched.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off, batches := 0, 0; ; {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+8 : off+8+n]
		if payload[0] == ledger.RecordBatch {
			if batches++; batches == 2 {
				at := bytes.Index(payload, []byte(`"root":"`)) + len(`"root":"`)
				if payload[at] == '0' {
					payload[at] = '1'
				} else {
					payload[at] = '0'
				}
				binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(payload))
				break
			}
		}
		off += 8 + n
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := audit(t, "root", "-ledger", path)
	if code != 1 || !strings.Contains(errOut, "batch 1 (record 3): recorded root") {
		t.Fatalf("root on a forged batch 1: exit %d: %s", code, errOut)
	}
	var got ledger.ChainState
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatal(err)
	}
	want := head0
	want.Pending = 1 // artifact 1 was read, but no verified batch anchors it
	if got != want {
		t.Fatalf("root reported %+v, want batch 0's head %+v", got, want)
	}
}
