package policy_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// goldenGeometries are the LLCs TestPolicyVictimDigests replays on. Each
// names its workloads; a geometry with cores > 1 interleaves them into one
// trace with trace.Interleave.
var goldenGeometries = []struct {
	name      string
	cfg       cache.Config
	cores     int
	accesses  int // per workload
	workloads []string
}{
	// The Table 1 LLC on sweep traces of the quick sweep's length.
	{"table1", cache.LLCConfig, 1, 60_000, []string{
		"mcf", "calculix", "mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)",
	}},
	// A small LLC, where Victim runs on nearly every miss. The sweep's
	// benchmark-shaped traces all but never hit in it, which leaves LRU,
	// LFU, LRFU and SRRIP evicting in one FIFO order; a Zipf trace keeps
	// enough reuse that all 19 policies decide differently.
	{"64x16", cache.Config{Name: "LLC", Sets: 64, Ways: 16, LatencyCycles: 26}, 1, 200_000, []string{"zipf(objects=65536,skew=0.9)"}},
	// The 4-core shared LLC: per-core histories and counters.
	{"shared4", cache.SharedLLCConfig4, 4, 25_000, []string{
		"mcf", "sphinx3", "zipf(objects=131072,skew=0.8,scan-every=25000,scan-len=8192)", "pr",
	}},
}

// victimDigests pins, per geometry and policy, the SHA-256 of every victim
// each replay chose (little-endian int32s, cache.Bypass included) followed
// by its post-warmup cache.Stats. A refactor of a policy must leave its
// digests alone; a change of what a policy decides moves them and must say
// why. The shared4 digests also move, by design, when trace.Interleave
// changes (the ROADMAP.md item that gives each core its own address and PC
// space), since that changes the stream itself.
var victimDigests = map[string]map[string]string{
	"table1": {
		"brrip":      "7785e4f671639ea208f8f1e23ad5fb9d071e62a0ca7332b58ab64934f7d46bee",
		"dip":        "7dda0b57546e6f50f132b14867ea119566354613598e9f426ed4a23287da26a4",
		"drrip":      "042c3b418956ffe7af0ab8618012fe2ff108dd91e1e92898ebb0029f7a3fee88",
		"eaf":        "2dd2f4c1ad8a99bbc7611be20addb782b2bf5f8fd835c2de6efc802455b3777a",
		"frd":        "067effb7ada9deade311e0ab8f5a2f2b76212014efaa97d21387c7d8fb308969",
		"glider":     "e3709bf89a71d1f9fdb786693ee0a20fd0283050969d7a6c94343edfdba9dd6e",
		"hawkeye":    "a6b75f5ca7c1d6d285eedb143fb764e717d7d37609c3fc2ebf34ebbdd6013798",
		"lfu":        "18580d3cacf9845c6648170302f29895597e89189179fe54a5b9b358198dc174",
		"lip":        "64939e73587730c5868fcbc51657c86d36e23a8153e0b6a418a53332a7780fa2",
		"lrfu":       "17dd2bee2cbe6382b97087f9f20aef793d080482e95abf32ed70ee2d4e94b89e",
		"lru":        "6907125dcf9bc7f7858f8ccf68e1abe2defc7ef404f80802a4edc7f1bb12b7e2",
		"mpppb":      "ee11f4aa9922426e380964971515f3fc7cd2c064a70c6a2c44e0f5c78d212497",
		"mru":        "531e58c0b213dc22842ad4c26c4a13db6da236608e6977c0ec221687472a2b46",
		"msa":        "f067b62ab790bc9e3c1c3409e68c450784ecc70f1d5c0088543b0361550ccce1",
		"perceptron": "ef12ad9bad354aa02277ff734571849f3ab805129a1ffcd98a6f9df14f2ea217",
		"random":     "6fe71fb36b3ade3beb34835ae482355d1ac48871fcd4f0643748af11ea570100",
		"sdbp":       "cb3ae06f5abfb38d3dbd3fbfd983f99f23ea5bd75d9f8bf25ed3c90d82d9265f",
		"ship++":     "c0e10c1f79a151280eaaa5a9912a72d18ffa95fbcfe6662159b8fc9a61d87ca1",
		"srrip":      "18580d3cacf9845c6648170302f29895597e89189179fe54a5b9b358198dc174",
	},
	"64x16": {
		"brrip":      "189ce8b8296b042e31e379329b9b679da2f80e0e77c8f4cb9ebc849251e07d29",
		"dip":        "c2e2349d2df726ae215dee32d5429398809af2a2835f5118c84d00a289dad8b0",
		"drrip":      "16a780033cb97dab9a5195e2347e79779e41d7ac0e21a4883b16532b2aabc0b3",
		"eaf":        "a13aa0bb6a9b028a10dbc6efc23cf6f7877a6009609562b2f25b5515daf2d752",
		"frd":        "9f446626515cdf0fccb5ddd059b9e8427e0ec51f0f4bfa767f479fb53aa18a8f",
		"glider":     "6a0ae429262b1cca434f985dc9ab9359f3da07d468d06e10c597876614fc9aed",
		"hawkeye":    "0c2da2af4a88ad3c6de4f63774ef4f0a874b5fb47ac4fcd4eb074f9a9ca8c387",
		"lfu":        "f7206c13941393a55ccb1eea98942d0f44967559cc5ed90c8de76e541e488fad",
		"lip":        "71b8d795502f67b8cff5536c801d14ad39aae0327d658cd5ce9e820b8ce3d05d",
		"lrfu":       "e1c117f64cae08f74820bed339de3eab2d08c67b66f1c902bb38b3fcc6ff59d4",
		"lru":        "1fe9ccce9c2ec07d48d7b7912d3dcb3cfe54dce16dad12f9f5eb8fb716633d78",
		"mpppb":      "ecc619be39edffbda32aa8e477902ff949037cd29e1d1dcca1f8ea6a84c033e5",
		"mru":        "8043720acdb0d20f9bada4dea91f40c23194e2a8a006532fcdcbe2f7289fecd9",
		"msa":        "30bb2dcbc9a1a945a6b331de2164c30de8fd542fdf038fbc0a85888c8488d11a",
		"perceptron": "c0347173043245224a9f14e040c5018459bbb396e362cbd935d2c7a00d346604",
		"random":     "86a6dfea03399120fcd6ff7f86a127aff08d4c6849cd72302a17d9277a0c341b",
		"sdbp":       "8262bc7cdd7a50ff63888286ee183689d2122e57b6ce20ba8605f087d0fa841e",
		"ship++":     "cee9be3f5563fce297d262ce6fc8e8075b86ddc388db0cbb7f0d91fe6967c099",
		"srrip":      "c0a0dfd0f849db4c44fb1139ea3ebed3d08669bb4c9c8c65e9b15462db4cad99",
	},
	"shared4": {
		"brrip":      "359b98c450094da686a064ccbf5c9438a823d214b80797ff2dffefb774e3ac96",
		"dip":        "6b1a9eb3a7ed01ba3a69479962de44bb178d92c65b7bb1c9c215dbb347a22d11",
		"drrip":      "7024890cfe0a088b9e2c33800eb30615e1da3f3c147b04fc3cbbd6538d7527b2",
		"eaf":        "988b467e4254c7fd4b1b0ff16cfe34aa617bdf6cec7ae4b8c16c6dfcdcab8c0d",
		"frd":        "4e5f58411274b2c385416e6327a4097d5666c476a2e33244842c45235bd21824",
		"glider":     "6768f2c0e442d1a665aa803c1298d8759b719f882756801f267b48029932113a",
		"hawkeye":    "945c888a7aee6943c5f88c3e1d20dfe375b314121b9e63810a20af13a9aed29d",
		"lfu":        "5fc0df4397343132c33b54f35aeb61e3a70afa60e2e882b07fdd02a7e7eabf00",
		"lip":        "b0caad7ebe3673fef55d2f9cc95d88c99da4d2d2373616492698e6b4c9b12abf",
		"lrfu":       "2ae883ef11d0d171224bdb50845c05a0261bf3e997ac27576d58c6dab9760884",
		"lru":        "9922183f33f0bf316e5f75a45907314b1ce9c57392ec52c65e729c2e74ef0bd5",
		"mpppb":      "f410c77fd9429323fd8fcf96984818e44d0a46e088bc953024cbe3bc55a8618e",
		"mru":        "cca8eb06230cf5f61afd6e09d845344305eab6acb3ef4140a0b0eadefd1d2956",
		"msa":        "bbc81d1df1d0d4b49ab5963887cdf99edf558ef45467967182ffc9b59e9db4aa",
		"perceptron": "ecd8c71476a5e5f9922b6e16b7266ae1bd438b2d68a7160f1757cd307b97e024",
		"random":     "720ae1fb4aff7b2c2ca9b4d57929ee16fc78f914aa374c028fae616f3346f7ac",
		"sdbp":       "065aa5a8207ced55d868a92ed93b254f38176f1ca10c2e3cb5d7b900bf7b33f0",
		"ship++":     "3d90923aee23934118c8e3eced303df253fef473a3bfd9d1c24df27408cf349a",
		"srrip":      "5fc0df4397343132c33b54f35aeb61e3a70afa60e2e882b07fdd02a7e7eabf00",
	},
}

// TestPolicyVictimDigests replays captured LLC streams through every
// registered policy on a fresh LLC per replay and compares each policy's
// victim-and-stats digest with the recorded one.
func TestPolicyVictimDigests(t *testing.T) {
	t.Parallel()
	for _, g := range goldenGeometries {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			var traces []*trace.Trace
			for i, name := range g.workloads {
				spec, err := workload.Resolve(name)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := spec.GenerateE(g.accesses, 42+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				traces = append(traces, tr)
			}
			if g.cores > 1 {
				traces = []*trace.Trace{trace.Interleave(g.name, traces...)}
			}
			ctx := context.Background()
			captures := make([]*cpu.Capture, len(traces))
			for i, tr := range traces {
				c, err := cpu.NewCapture(ctx, tr, g.cores)
				if err != nil {
					t.Fatal(err)
				}
				captures[i] = c
			}
			var report strings.Builder
			for _, name := range policy.Names() {
				h := sha256.New()
				for i, c := range captures {
					p, _ := policy.New(name, g.cfg.Sets, g.cfg.Ways)
					log := &victimLog{Policy: p}
					llc, err := cache.New(g.cfg, log)
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.RunFunctional(ctx, llc, traces[i].Len()/5, false)
					if err != nil {
						t.Fatal(err)
					}
					binary.Write(h, binary.LittleEndian, log.victims)
					fmt.Fprintf(h, "%+v", res.LLC)
				}
				got := hex.EncodeToString(h.Sum(nil))
				fmt.Fprintf(&report, "\t\t%q: %q,\n", name, got)
				if want := victimDigests[g.name][name]; got != want {
					t.Errorf("%s: victim digest %s, want %s", name, got, want)
				}
			}
			if t.Failed() {
				t.Logf("digests on %s:\n%s", g.name, report.String())
			}
		})
	}
}
