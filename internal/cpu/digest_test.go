package cpu_test

import (
	"context"
	"fmt"
	"testing"

	"glider/internal/cpu"
	"glider/internal/experiments"
	"glider/internal/workload"
)

// captureDigests pins the L1/L2 filter: the SHA-256 (cpu.CaptureDigest) of
// every capture the benchmark sweep and Figure 13's quick mixes replay. A
// change to the private caches that moves one level byte or one writeback
// moves a digest.
var captureDigests = map[string]string{
	"654.roms": "7e8baa964732c47e27891bc6909f57b90120c60063eadbd5fb8f3ad2fa14ae34",
	"bfs":      "fac5bd3ba2db8bd04156accd0f4e938a3c8b3e4017c966bd9013a8f7614e196b",
	"calculix": "68a4c6737d1ed8a4ea90ff1ed92da8faade124a8cedd305b02e52744a95c2d22",
	"cc":       "14035d34d23b5ba5434c0090a4bd19fb2dd9d24e8148bb9c93707d75f6c1a8f3",
	"mcf":      "856abb03cd4db8a41461600512d6d19f4353cd6d5111e843602e626daf960a5c",
	"mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)": "5316b8596124b36d42ad2ab1c608c599a4bf8fddb3a54a109abab70ed8fb186d",
	"mix0":    "4a1787b1ee5000075e8c2e17de5c268db85b65fa21b706dfda42ff179c596b99",
	"mix1":    "97f5badd14735d6817f8848886b15a8e8a2169e0c1444b257300612ff31671d7",
	"pr":      "7d7b500fa526298b4ef069d7249566a18ba2c27bdaf1b14f0d5c59198db482f1",
	"soplex":  "9350b0b450b9ded125e34f367fe6e29d5a33e25ff50f340ca12485d8d96dabaa",
	"sphinx3": "b6b54777440c0a80fbebcaa11b1d1b65a52445d88b55edb2e4ef87a833b71aa2",
	"tc":      "a07d62399644c6033a3db83f4ab7eda95027be5b11f6eb137234e47d0282716e",
	"zipf(objects=131072,skew=0.8,scan-every=25000,scan-len=8192)": "d01108c496f3dc85777538d839c205ab052785f760b4166f3f93b8da3af5c002",
	"zipf(objects=65536,skew=0.9)":                                 "36df967a663588af810eab61b77d2b2767f8b9e0e303db738f1fbfe8fef7ad07",
}

// TestCaptureDigests captures the sweep grid's twelve traces (60k accesses,
// seed 42) through one core's L1/L2, and Quick()'s Figure 13 mixes through
// four, and requires every capture's digest to be the pinned one.
func TestCaptureDigests(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	got := map[string]string{}
	for _, name := range experiments.BenchSweepWorkloads() {
		spec, err := workload.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.NewCapture(ctx, spec.Generate(60_000, 42), 1)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = cpu.CaptureDigest(c)
	}
	q := experiments.Quick()
	for _, mix := range workload.Mixes(q.Mixes, 4, q.Seed) {
		c, err := cpu.MixCapture(ctx, mix, q.MixAccessesPerCore, q.Seed)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("mix%d", mix.ID)] = cpu.CaptureDigest(c)
	}
	for name, d := range got {
		if want := captureDigests[name]; d != want {
			t.Errorf("%s: capture digest %s, want %s", name, d, want)
		}
	}
	if len(got) != len(captureDigests) {
		t.Errorf("%d captures, %d pinned digests", len(got), len(captureDigests))
	}
}
