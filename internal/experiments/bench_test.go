// Benchmarks regenerating the paper's evaluation artifacts — one per
// table/figure plus the DESIGN.md ablations. Each reports the
// experiment's headline quantities as custom benchmark metrics, so
// `go test -bench=. -benchmem` doubles as the reproduction run;
// cmd/portland-bench prints the full row/series output.
package experiments_test

import (
	"io"
	"testing"
	"time"

	"portland/internal/experiments"
)

func BenchmarkTable1StateSize(b *testing.B) {
	cfg := experiments.DefaultTable1()
	cfg.Ks = []int{4, 8}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.PLMax), "portland-max-entries")
		b.ReportMetric(float64(last.BLMax), "flatL2-max-entries")
		if i == 0 {
			res.Print(io.Discard)
		}
	}
}

func BenchmarkFig9UDPConvergence(b *testing.B) {
	cfg := experiments.DefaultFig9()
	cfg.MaxFaults = 4
	cfg.Trials = 3
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var med float64
		n := 0
		for _, row := range res.Rows {
			if row.Failure.N > 0 {
				med += row.Failure.Median
				n++
			}
			if row.Dead > 0 {
				b.Fatalf("faults=%d: %d dead flows", row.Faults, row.Dead)
			}
		}
		if n > 0 {
			b.ReportMetric(med/float64(n), "convergence-ms")
		}
	}
}

func BenchmarkFig10TCPConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(experiments.DefaultFig10())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Gap)/1e6, "tcp-gap-ms")
		b.ReportMetric(float64(res.Timeouts), "rto-events")
	}
}

func BenchmarkFig11MulticastConvergence(b *testing.B) {
	cfg := experiments.DefaultFig11()
	cfg.Trials = 4
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Dead > 0 {
			b.Fatalf("%d receivers never recovered", res.Dead)
		}
		b.ReportMetric(res.Convergence.Median, "convergence-ms")
	}
}

func BenchmarkFig12VMMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(experiments.DefaultFig12())
		if err != nil {
			b.Fatal(err)
		}
		if res.Reset {
			b.Fatal("connection reset across migration")
		}
		b.ReportMetric(float64(res.Outage)/1e6, "outage-ms")
		b.ReportMetric(res.PostMbps, "post-Mbps")
	}
}

func BenchmarkFig13ControlTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(experiments.DefaultFig13())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Mbps[len(last.Mbps)-1], "Mbps-at-128k-hosts-100arps")
		b.ReportMetric(float64(res.BytesPerARP), "bytes-per-arp")
	}
}

func BenchmarkFig14FabricManagerCPU(b *testing.B) {
	cfg := experiments.DefaultFig14()
	cfg.MeasureOps = 200000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ARPsPerSec, "arps-per-core-sec")
		// Paper's reference point: ~27k hosts at 100 ARPs/s.
		for _, row := range res.Rows {
			if row.Hosts == 24576 {
				b.ReportMetric(row.Cores[len(row.Cores)-1], "cores-at-24k-hosts-100arps")
			}
		}
	}
}

func BenchmarkAblationECMPvsSpanningTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA1(experiments.DefaultA1())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PortLandMbps, "portland-Mbps")
		b.ReportMetric(res.BaselineMbps, "flatL2-Mbps")
		b.ReportMetric(res.Speedup, "speedup")
	}
}

func BenchmarkAblationLDPDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA2([]int{4, 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].Discovery)/1e6, "discovery-ms-k8")
	}
}

func BenchmarkAblationARPFlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA3(4, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PLDataFrames, "portland-frames-per-arp")
		b.ReportMetric(res.BLDataFrames, "flatL2-frames-per-arp")
	}
}

func BenchmarkAblationLDMInterval(b *testing.B) {
	ivs := []time.Duration{5 * time.Millisecond, 20 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA4(ivs, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Convergence.Median, "convergence-ms-5ms-ldm")
		b.ReportMetric(res.Rows[len(res.Rows)-1].Convergence.Median, "convergence-ms-20ms-ldm")
	}
}

func BenchmarkAblationECMPBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA5(4, 128)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Imbalance, "max-over-mean")
	}
}

func BenchmarkAblationLocalityRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA6(4, 30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].RTT.Median, "same-edge-us")
		b.ReportMetric(res.Rows[2].RTT.Median, "inter-pod-us")
	}
}
