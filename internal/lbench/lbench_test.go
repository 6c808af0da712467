package lbench

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func model() Model { return NewModel(machine.Default()) }

func TestPeakDefinition(t *testing.T) {
	// 1 flop/element with 12 threads defines (at least) peak link traffic.
	md := model()
	loi := md.MeasuredLoI(Config{Threads: 12, FlopsPerElement: 1})
	if loi < 0.999 {
		t.Errorf("12-thread 1-flop LoI = %v, want saturated 1.0", loi)
	}
}

func TestTwoThreadsReachFiftyPercent(t *testing.T) {
	// §6: two threads provide up to 50% intensity.
	md := model()
	loi := md.MeasuredLoI(Config{Threads: 2, FlopsPerElement: 1})
	if math.Abs(loi-0.5) > 0.02 {
		t.Errorf("2-thread max LoI = %v, want ~0.5", loi)
	}
}

func TestSaturationBelowEightFlops(t *testing.T) {
	// Paper: at 12 threads, PCM-measured traffic saturates at the link
	// peak for intensities below 8 flops/element.
	md := model()
	for f := 1; f <= 8; f++ {
		if loi := md.MeasuredLoI(Config{Threads: 12, FlopsPerElement: f}); loi < 0.99 {
			t.Errorf("f=%d: measured LoI = %v, want saturated", f, loi)
		}
	}
	if loi := md.MeasuredLoI(Config{Threads: 12, FlopsPerElement: 32}); loi > 0.5 {
		t.Errorf("f=32: measured LoI = %v, want well below saturation", loi)
	}
}

func TestConfigureRoundTrip(t *testing.T) {
	md := model()
	for _, target := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		f, ok := md.Configure(target, 2)
		if !ok {
			t.Fatalf("cannot configure LoI=%v with 2 threads", target)
		}
		got := md.MeasuredLoI(Config{Threads: 2, FlopsPerElement: f})
		if math.Abs(got-target) > 0.07 {
			t.Errorf("target %v -> f=%d -> measured %v", target, f, got)
		}
	}
	// Out of range for the thread count.
	if _, ok := md.Configure(0.9, 2); ok {
		t.Errorf("2 threads should not reach LoI=0.9")
	}
}

func TestMeasuredLoIMonotoneInThreads(t *testing.T) {
	md := model()
	prev := 0.0
	for th := 1; th <= 12; th++ {
		loi := md.MeasuredLoI(Config{Threads: th, FlopsPerElement: 4})
		if loi < prev-1e-9 {
			t.Errorf("LoI decreased at %d threads", th)
		}
		prev = loi
	}
}

func TestICGrowsPastSaturation(t *testing.T) {
	// The core LBench claim: IC keeps increasing while the PCM reading is
	// flat at the peak.
	md := model()
	icAtPeak := md.IC(md.Link.PeakTraffic)
	icOverload := md.IC(3 * md.Link.PeakTraffic)
	if icOverload <= icAtPeak {
		t.Errorf("IC should grow past saturation: %v vs %v", icOverload, icAtPeak)
	}
	if idle := md.IC(0); math.Abs(idle-1) > 1e-9 {
		t.Errorf("idle IC = %v, want 1", idle)
	}
}

func TestICRangeMatchesPaperScale(t *testing.T) {
	// Figure 11 middle: IC spans roughly 1.0 .. ~2.6 for background
	// intensities 128 down to 1 flop/element at 12 threads.
	md := model()
	icMax := md.IC(md.OfferedRaw(Config{Threads: 12, FlopsPerElement: 1}))
	icMin := md.IC(md.OfferedRaw(Config{Threads: 12, FlopsPerElement: 128}))
	if icMax < 1.8 || icMax > 4 {
		t.Errorf("IC at f=1 = %v, want in the paper's ~2-3 band", icMax)
	}
	if icMin > 1.2 {
		t.Errorf("IC at f=128 = %v, want near 1", icMin)
	}
	// Monotone decreasing in f.
	prev := math.Inf(1)
	for _, f := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		ic := md.IC(md.OfferedRaw(Config{Threads: 12, FlopsPerElement: f}))
		if ic > prev+1e-9 {
			t.Errorf("IC not monotone at f=%d", f)
		}
		prev = ic
	}
}

func TestBenchRunGeneratesRemoteTraffic(t *testing.T) {
	b := NewBench(Config{Threads: 2, FlopsPerElement: 3})
	b.Elements = 1 << 14
	b.Iterations = 2
	m := machine.New(machine.Default())
	b.Run(m)
	p, ok := m.Phase("lbench")
	if !ok {
		t.Fatal("no lbench phase")
	}
	if p.RemoteBytes == 0 {
		t.Errorf("LBench array should live on the pool (remote traffic)")
	}
	if p.LocalBytes > p.RemoteBytes/10 {
		t.Errorf("local bytes %d unexpectedly high vs remote %d", p.LocalBytes, p.RemoteBytes)
	}
	_, regions := m.SplitAt(m.Config().Mem.LocalCapacity)
	for _, rs := range regions {
		if rs.Region.Name == "lbench-array" && (rs.LocalPages != 0 || rs.RemotePages == 0) {
			t.Errorf("lbench array has %d local and %d remote pages, want all remote", rs.LocalPages, rs.RemotePages)
		}
	}
	if p.Flops != float64(b.Elements*3*2) {
		t.Errorf("flops = %v, want %v", p.Flops, b.Elements*3*2)
	}
}

func TestICOfWorkloadSpread(t *testing.T) {
	cfg := machine.Default()
	md := model()
	phases := []machine.PhaseStats{
		{Name: "init", LocalBytes: 10e9},                     // no remote traffic
		{Name: "compute", LocalBytes: 5e9, RemoteBytes: 8e9}, // heavy remote
	}
	mean, lo, hi := md.ICOfWorkload(cfg, phases)
	if lo > hi || mean < lo || mean > hi {
		t.Errorf("mean/lo/hi inconsistent: %v %v %v", mean, lo, hi)
	}
	if hi <= 1 {
		t.Errorf("remote-heavy phase should cause interference: hi=%v", hi)
	}
	if lo < 1 {
		t.Errorf("IC below 1 is impossible: lo=%v", lo)
	}
}

// Property: measured LoI is within [0,1] and monotone non-increasing in
// flops-per-element.
func TestLoIBoundsProperty(t *testing.T) {
	md := model()
	f := func(threads, flops uint8) bool {
		th := int(threads%16) + 1
		fl := int(flops%200) + 1
		loi := md.MeasuredLoI(Config{Threads: th, FlopsPerElement: fl})
		if loi < 0 || loi > 1 {
			return false
		}
		more := md.MeasuredLoI(Config{Threads: th, FlopsPerElement: fl + 1})
		return more <= loi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
