package exps

import (
	"fmt"

	"flexdriver/internal/fld"
	"flexdriver/internal/memmodel"
	"flexdriver/internal/perfmodel"
)

// Table1 reports the architecture-comparison survey. The competitor rows
// are published numbers (they cannot be measured here); the FlexDriver row
// is our area model's output for the prototype configuration, shown
// against the paper's reported totals.
func Table1() *Result {
	r := &Result{ID: "table1", Title: "FPGA networking architectures (published survey + our FLD)"}
	r.Columns = []string{"category", "solution", "Gbps", "LUT", "FF", "BRAM", "URAM", "tunneling", "hw transport"}
	rows := [][]string{
		{"CPU-mediated", "VN2F", "10", "5.7K", "1.1K", "233", "-", "host-only", "n/a"},
		{"Accelerator-hosted", "Corundum", "25/100", "66.7K/62.4K", "71.7K/76.8K", "239/331", "20", "no", "no"},
		{"Accelerator-hosted", "StRoM", "10/100", "92K/122K", "115K/214K", "181/402", "-", "no", "yes"},
		{"BITW", "NICA", "40", "232K", "299K", "584", "-", "host-only", "host-only"},
		{"BITW", "Innova-1 shell", "40", "169K", "212K", "152", "-", "host-only", "host-only"},
	}
	for _, row := range rows {
		r.AddRow(row...)
	}
	area := fld.DefaultConfig().Area()
	r.AddRow("FlexDriver", "this repo (model)", "100",
		fmt.Sprintf("%dK", area.LUT/1000), fmt.Sprintf("%dK", area.FF/1000),
		d0(area.BRAM), d0(area.URAM), "yes", "yes")
	r.Check("FLD LUT vs paper", 62000, float64(area.LUT), "LUTs", within(float64(area.LUT), 62000, 0.3),
		"paper: 62K incl. PCIe core")
	r.Check("FLD smaller than NICA", 232000, float64(area.LUT), "LUTs", area.LUT < 232000, "")
	return r
}

// Table2 reports the driver memory-analysis parameters and derived values.
func Table2() *Result {
	r := &Result{ID: "table2", Title: "NIC driver memory analysis parameters (Table 2a)"}
	r.Columns = []string{"quantity", "value"}
	p := memmodel.PaperParams()
	d := p.Derive()
	r.AddRow("bandwidth", fmt.Sprintf("%.0f Gbps", p.BandwidthGbps))
	r.AddRow("min/max packet", fmt.Sprintf("%d B / %d KiB", p.MinPacket, p.MaxPacket>>10))
	r.AddRow("lifetimes rx/tx", fmt.Sprintf("%.0f / %.0f us", p.RxLifetimeUs, p.TxLifetimeUs))
	r.AddRow("tx queues", d0(p.TxQueues))
	r.AddRow("max packet rate", fmt.Sprintf("%.1f Mpps", d.PacketRateMpps))
	r.AddRow("min tx descriptors", d0(d.TxDescriptors))
	r.AddRow("min rx descriptors", d0(d.RxDescriptors))
	r.AddRow("tx BDP", fmt.Sprintf("%.0f KiB", float64(d.TxBDPBytes)/1024))
	r.AddRow("rx BDP", fmt.Sprintf("%.0f KiB", float64(d.RxBDPBytes)/1024))
	r.Check("packet rate", 45, d.PacketRateMpps, "Mpps", within(d.PacketRateMpps, 45.3, 0.02), "")
	r.Check("N_txdesc", 1133, float64(d.TxDescriptors), "", d.TxDescriptors == 1133, "")
	r.Check("N_rxdesc", 227, float64(d.RxDescriptors), "", d.RxDescriptors == 227, "")
	return r
}

// Table3 reports the memory breakdown and shrink ratios.
func Table3() *Result {
	r := &Result{ID: "table3", Title: "Driver memory, software vs FLD (Table 3)"}
	r.Columns = []string{"structure", "software", "FLD", "shrink"}
	p := memmodel.PaperParams()
	sw, fl := p.Software(), p.FLD()
	s := p.ShrinkRatios()
	kib := func(b int) string {
		if b >= 1<<20 {
			return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
		}
		return fmt.Sprintf("%.1f KiB", float64(b)/1024)
	}
	r.AddRow("tx rings", kib(sw.TxRings), kib(fl.TxRings), f1(s.TxRings)+"x")
	r.AddRow("tx buffers", kib(sw.TxBuffers), kib(fl.TxBuffers), f1(s.TxBuffers)+"x")
	r.AddRow("rx buffers", kib(sw.RxBuffers), kib(fl.RxBuffers), f1(s.RxBuffers)+"x")
	r.AddRow("completion queues", kib(sw.CQ), kib(fl.CQ), f2(s.CQ)+"x")
	r.AddRow("rx ring", kib(sw.RxRing), "host memory", "-")
	r.AddRow("producer indices", kib(sw.PI), kib(fl.PI), "1x")
	r.AddRow("total", kib(sw.Total()), kib(fl.Total()), f1(s.Total)+"x")
	r.Check("software total", 85.3, float64(sw.Total())/(1<<20), "MiB", within(float64(sw.Total())/(1<<20), 85.3, 0.02), "")
	r.Check("FLD total", 832.7, float64(fl.Total())/1024, "KiB", within(float64(fl.Total())/1024, 832.7, 0.05), "")
	r.Check("total shrink", 105, s.Total, "x", within(s.Total, 105, 0.1), "")
	return r
}

// Fig4 reports the memory-scalability sweep.
func Fig4() *Result {
	r := &Result{ID: "fig4", Title: "Driver memory scaling (Figure 4); XCKU15P budget = 10.05 MiB"}
	r.Columns = []string{"Gbps", "queues", "software", "FLD", "FLD fits"}
	pts := memmodel.ScalabilitySweep([]float64{25, 50, 100, 150, 200, 300, 400},
		[]int{64, 128, 256, 512, 1024, 2048})
	worstFLD := 0
	for _, p := range pts {
		fits := p.FLDBytes <= memmodel.XCKU15PBytes
		r.AddRow(fmt.Sprintf("%.0f", p.BandwidthGbps), d0(p.TxQueues),
			fmt.Sprintf("%.1f MiB", float64(p.SoftwareBytes)/(1<<20)),
			fmt.Sprintf("%.2f MiB", float64(p.FLDBytes)/(1<<20)),
			fmt.Sprintf("%v", fits))
		if p.FLDBytes > worstFLD {
			worstFLD = p.FLDBytes
		}
	}
	r.Check("FLD fits XCKU15P at 400G/2048q", 10.05, float64(worstFLD)/(1<<20), "MiB",
		worstFLD <= memmodel.XCKU15PBytes, "")
	last := pts[len(pts)-1]
	ratio := float64(last.SoftwareBytes) / float64(last.FLDBytes)
	r.Check("software/FLD at 400G/2048q", 100, ratio, "x", ratio > 100,
		"orders of magnitude, as Figure 4 shows")
	return r
}

// Table5 reports the hardware area estimate for the prototype
// configuration against the published utilization.
func Table5() *Result {
	r := &Result{ID: "table5", Title: "FLD area (Table 5; modeled from configuration)"}
	r.Columns = []string{"module", "LUT", "FF", "BRAM", "URAM"}
	area := fld.DefaultConfig().Area()
	r.AddRow("FLD (modeled)", d0(area.LUT), d0(area.FF), d0(area.BRAM), d0(area.URAM))
	r.AddRow("FLD (paper)", "50000", "66000", "35", "44")
	r.Check("LUTs", 50000, float64(area.LUT), "", within(float64(area.LUT), 50000, 0.15), "")
	r.Check("FFs", 66000, float64(area.FF), "", within(float64(area.FF), 66000, 0.15), "")
	r.Check("BRAMs", 35, float64(area.BRAM), "", within(float64(area.BRAM), 35, 0.8),
		"coarse: depends on RTL packing")
	r.Check("URAMs", 44, float64(area.URAM), "", within(float64(area.URAM), 44, 0.8), "")
	// Memory fits the published on-die total.
	mem := fld.DefaultConfig().Memory().Total()
	r.Check("on-die memory", 832.7, float64(mem)/1024, "KiB", mem < 2<<20, "prototype config")
	return r
}

// Fig7a reports the analytic performance model.
func Fig7a() *Result {
	r := &Result{ID: "fig7a", Title: "Performance model: FLD vs raw Ethernet (Figure 7a)"}
	r.Columns = []string{"config", "size", "Ethernet Gbps", "FLD Gbps", "fraction"}
	sizes := []int{64, 96, 128, 192, 256, 384, 512, 768, 1024, 1500, 2048, 4096}
	for _, rate := range []float64{25, 50, 100} {
		m := perfmodel.DefaultEchoModel(rate)
		for _, p := range m.Sweep(sizes) {
			r.AddRow(fmt.Sprintf("%.0fG", rate), d0(p.Size), f2(p.EthernetGbps), f2(p.FLDGbps),
				fmt.Sprintf("%.1f%%", 100*p.FractionOfEthNet))
		}
	}
	m25 := perfmodel.DefaultEchoModel(25)
	r.Check("25G meets line rate at 64 B", 1, m25.FractionOfEthernet(64), "",
		m25.FractionOfEthernet(64) > 0.999, "")
	for _, rate := range []float64{50, 100} {
		m := perfmodel.DefaultEchoModel(rate)
		frac := m.FractionOfEthernet(512)
		r.Check(fmt.Sprintf("%.0fG at 512 B >= 95%% of Ethernet", rate), 0.95, frac, "", frac >= 0.95, "")
	}
	return r
}

// Table4 records the paper's software lines of code next to this
// repository's analogous components (informational).
func Table4() *Result {
	r := &Result{ID: "table4", Title: "Software components (paper LoC vs this repo's analogues)"}
	r.Columns = []string{"paper component", "paper LoC", "this repo"}
	r.AddRow("FLD runtime library", "3753", "internal/fldsw (runtime)")
	r.AddRow("FLD kernel driver", "1137", "internal/fldsw (error path) + internal/fld setup")
	r.AddRow("FLD-E control-plane", "1554", "internal/fldsw/flde.go")
	r.AddRow("FLD-R control-plane", "1510", "internal/fldsw/fldr.go")
	r.AddRow("FLD-R client library", "754", "internal/fldsw.Connect + swdriver RDMA endpoint")
	r.AddRow("ZUC DPDK driver", "732", "internal/accel/zuc/cryptodev.go")
	return r
}
