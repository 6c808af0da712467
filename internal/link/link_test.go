package link

import (
	"math"
	"testing"
	"testing/quick"
)

func testLink() *Link {
	return New(Config{
		DataBandwidth: 34e9,
		PeakTraffic:   85e9,
		Latency:       202e-9,
	})
}

func TestPCMSaturates(t *testing.T) {
	l := testLink()
	if got := l.PCMTraffic(40e9); got != 40e9 {
		t.Errorf("PCM below peak = %v, want 40e9", got)
	}
	if got := l.PCMTraffic(200e9); got != 85e9 {
		t.Errorf("PCM above peak = %v, want saturated 85e9", got)
	}
}

func TestDelayFactorMonotone(t *testing.T) {
	l := testLink()
	prev := 0.0
	for rho := 0.0; rho <= 3.0; rho += 0.05 {
		d := l.DelayFactor(rho)
		if d < 1 {
			t.Fatalf("delay factor %v < 1 at rho=%v", d, rho)
		}
		if d < prev {
			t.Fatalf("delay factor not monotone at rho=%v: %v < %v", rho, d, prev)
		}
		prev = d
	}
}

func TestDelayGrowsPastSaturation(t *testing.T) {
	// The whole point of LBench: contention keeps increasing after the
	// PCM counter has pinned at the link peak.
	l := testLink()
	atSat := l.DelayFactor(1.0)
	over := l.DelayFactor(2.0)
	if over <= atSat {
		t.Errorf("delay at rho=2 (%v) should exceed delay at rho=1 (%v)", over, atSat)
	}
	if l.PCMTraffic(2*85e9) != l.PCMTraffic(85e9) {
		t.Errorf("PCM should be identical at and past saturation")
	}
}

func TestEffectiveLatencyUnloaded(t *testing.T) {
	l := testLink()
	if got := l.EffectiveLatency(0); got != 202e-9 {
		t.Errorf("unloaded latency = %v, want 202ns", got)
	}
}

func TestShareBandwidthUncontended(t *testing.T) {
	l := testLink()
	// 10 GB/s payload demand with no background: full demand served.
	if got := l.ShareBandwidth(10e9, 0); got != 10e9 {
		t.Errorf("uncontended share = %v, want 10e9", got)
	}
	// Demand above data bandwidth clips at data bandwidth.
	if got := l.ShareBandwidth(50e9, 0); got != 34e9 {
		t.Errorf("clipped share = %v, want 34e9", got)
	}
}

func TestShareBandwidthContended(t *testing.T) {
	l := testLink()
	// Background consumes 80% of peak raw traffic; a large demand gets a
	// proportional slice, strictly less than the uncontended value.
	free := l.ShareBandwidth(30e9, 0)
	contended := l.ShareBandwidth(30e9, 0.8*85e9)
	if contended >= free {
		t.Errorf("contended share %v should be below free share %v", contended, free)
	}
	if contended <= 0 {
		t.Errorf("contended share should stay positive, got %v", contended)
	}
}

func TestRawTrafficOverhead(t *testing.T) {
	l := testLink()
	if got := l.RawTraffic(100); math.Abs(got-115) > 1e-9 {
		t.Errorf("raw traffic = %v, want 115 (15%% overhead)", got)
	}
}

// Property: bandwidth share never exceeds demand, never exceeds data
// bandwidth, is non-negative, and is monotone non-increasing in background
// load.
func TestShareBandwidthProperty(t *testing.T) {
	l := testLink()
	f := func(demandGB, bg1GB, bg2GB uint16) bool {
		demand := float64(demandGB%200) * 1e9
		bgA := float64(bg1GB%200) * 1e9
		bgB := float64(bg2GB%200) * 1e9
		if bgA > bgB {
			bgA, bgB = bgB, bgA
		}
		sA := l.ShareBandwidth(demand, bgA)
		sB := l.ShareBandwidth(demand, bgB)
		if demand == 0 {
			return sA == 0 && sB == 0
		}
		return sA >= sB-1e-6 && sA <= demand+1e-6 && sA <= 34e9+1e-6 && sB >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
