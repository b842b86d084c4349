package exps

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"flexdriver"
)

// The experiment tests run shortened versions of every reproduction and
// assert the paper's qualitative claims via each Result's checks. The
// full-length runs live in the root bench_test.go and cmd/fldreport.

// resultGolden pins the SHA-256 of each experiment's rendered Result at
// the window or sample count its test runs it with, so a refactor that
// moves any reported figure, row or check fails here. If a change
// legitimately alters an experiment's output, recapture its entry and
// say why in the commit message.
var resultGolden = map[string]string{
	"table1":        "ad621fb71ba056cc402ebac278bfda007bbdfd76b54a942b57dc4378c8cd5162",
	"table2":        "da384c027b28d42163e6d40eca4273328448993766bff34dee8be98ca6eda46b",
	"table3":        "08127be09696f2dcdaf44abbbd30d89d84ebf920560fa86356c33cbb9932f183",
	"fig4":          "f0313a7ea13fc01eb682c50c5625d13571b1f1ec37587f03fdd4adee188833c1",
	"table5":        "1ab9c98f668f9564a8c4cf754205dbca01c3f12cc35ebe201c332a73b94c35ec",
	"fig7a":         "b7b1368707889e49423f67e4f0369cfb8d9483b8526e8de7036c4d8263f14eb9",
	"table4":        "c840fa450d4a055f5c877cb0dfee0bb4436bdd6833e2848273dfd2e23a9ed69e",
	"fig7b":         "96506348d50db88572849d13e371bd007c27a279f6af2005dcbb48e7826bf296",
	"fig7c":         "4ff9633ffc16b207fe0e44a49787428f45b913a1ca87ba1654aece7d3c8b75c7",
	"table6":        "e9384e2f7db31fc80feb859be65488fe8ce28594ee39cfbc48895f17dd8c25a0",
	"mixed-trace":   "f0f512ea1d27d1d54160776d6c51916aeefcc417cc44109fb40a177a22e19c74",
	"fig8a":         "5c871b1bf845f44f4c5d61a3e0e0c83bb55436c72709087760b6b9042767d277",
	"fig8b":         "a441fa78c8782377357ac1d123562749c25622f2496721f91e4286748c0205ba",
	"defrag":        "074199c7330ce3d465a6d99eb4785a3e4ab90b782cd8a97234d1de2ce1a01334",
	"iot-linerate":  "62808bb573a4f9e45b11f438c3e1edcc19ba8b0045d2f46fa006946b96c9fa00",
	"iot-isolation": "7442e3e5c197e8126653a5cd54db2da7dc4e94307c9824491f6c3bdc1efe585b",
	"iot-security":  "b44104ccdfca0a259017567451ac55e2c9be1cb69edf8bcbd665ea6d939aafaf",
	"telemetry":     "23015106d59c724f83e54a9421c0df7de01050708a474b35a02f9e5e29b22ead",
	"ext-virtio":    "9ba52bfc913527a2a68621b40329b5dd64687e7fd027b060888dd5ed5c0dd92a",
}

func requirePassed(t *testing.T, r *Result) {
	t.Helper()
	out := r.String()
	t.Log("\n" + out)
	if !r.Passed() {
		t.Errorf("%s: checks failed", r.ID)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != resultGolden[r.ID] {
		t.Errorf("%s: result diverged from golden:\n got  %s\n want %s", r.ID, got, resultGolden[r.ID])
	}
}

func TestStaticTables(t *testing.T) {
	for _, r := range []*Result{Table1(), Table2(), Table3(), Fig4(), Table5(), Fig7a(), Table4()} {
		requirePassed(t, r)
	}
}

func TestFig7bEchoBandwidth(t *testing.T) {
	requirePassed(t, Fig7b([]int{64, 128, 256, 512, 1024}, 350*flexdriver.Microsecond))
}

func TestFig7cLatencyVsLoad(t *testing.T) {
	requirePassed(t, Fig7c([]float64{0.1, 0.5, 0.8, 1.03}, 2500))
}

func TestTable6EchoLatency(t *testing.T) {
	requirePassed(t, Table6(4000))
}

func TestMixedTrace(t *testing.T) {
	requirePassed(t, MixedTrace(500*flexdriver.Microsecond))
}

func TestFig8aZucThroughput(t *testing.T) {
	requirePassed(t, Fig8a([]int{256, 512, 1024}, 350*flexdriver.Microsecond))
}

func TestFig8bZucLatency(t *testing.T) {
	requirePassed(t, Fig8b([]float64{0.1, 0.5, 0.8}, 1200))
}

func TestDefragThroughput(t *testing.T) {
	requirePassed(t, Defrag(500*flexdriver.Microsecond))
}

func TestIotLineRate(t *testing.T) {
	requirePassed(t, IotLineRate(300*flexdriver.Microsecond))
}

func TestIotIsolation(t *testing.T) {
	requirePassed(t, IotIsolation(500*flexdriver.Microsecond))
}

func TestIotSecurity(t *testing.T) {
	requirePassed(t, IotInvalidTokensDropped(250*flexdriver.Microsecond))
}

func TestTelemetryReconciliation(t *testing.T) {
	requirePassed(t, Telemetry(60*flexdriver.Microsecond))
}

// TestEchoBandwidthPointsSane: every measured point is positive and never
// meaningfully exceeds its model (conservation sanity).
func TestEchoBandwidthPointsSane(t *testing.T) {
	for _, mode := range []EchoMode{FLDERemote, FLDRRemote} {
		for _, p := range EchoBandwidth(mode, []int{256, 1024}, 250*flexdriver.Microsecond) {
			if p.AchievedGbps <= 0 {
				t.Errorf("%v size %d: zero throughput", mode, p.Size)
			}
			if p.AchievedGbps > 1.05*p.ModelGbps {
				t.Errorf("%v size %d: achieved %.2f exceeds model %.2f",
					mode, p.Size, p.AchievedGbps, p.ModelGbps)
			}
		}
	}
}
