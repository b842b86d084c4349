package scenario

import "testing"

// TestRunTelemetryGolden pins Run's telemetry hash for one generated
// seed per workload variant, on the sequential reference schedule. A
// refactor of the scenario builder must leave every hash unchanged; if
// a change legitimately alters simulated behavior, recapture the
// constants and say why in the commit message.
func TestRunTelemetryGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		hash string
	}{
		{"vxlan+rdma+faults", 2, "441eb8d37842ee99e4ae7ec9397fd262391b6553f2380a5f625b9f52e47e10be"},
		{"tcp", 3, "d96b334619a8fa385b4c4ffe5af4f1da93751663fdb25862d8c0d5fa2bc6c635"},
		{"rpc", 53, "9abdc156b1ac1655ab014a6d0891e184b9e9438f217e158a561869921edafeef"},
		{"multi-tenant", 5, "707dcb86751474418c79eaf7d3c14af409341f070f8c1ed1ff85584c29ad9d64"},
		{"aggregated", 6, "4d116ebfdc9511acc86324eebb6fb202cfaa8d047664be28b19c1711140de562"},
		{"reconfig", 15, "48a59e3405b3cbc043d3138752fc765b8a2c243ac45f7d46eb66cd35b219261c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Generate(tc.seed)
			s.Workers = 1
			if got := Run(s).Hash; got != tc.hash {
				t.Fatalf("seed %d (%s) telemetry diverged from golden:\n got  %s\n want %s",
					tc.seed, s, got, tc.hash)
			}
		})
	}
}
