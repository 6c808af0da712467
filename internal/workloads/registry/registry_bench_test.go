package registry

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkExecute times one scale-1 execution of each workload on the
// default machine, and reports its demand accesses per execution and the
// time per demand access: the kernel plus the cache simulation it drives.
func BenchmarkExecute(b *testing.B) {
	for _, e := range All() {
		b.Run(e.Name, func(b *testing.B) {
			var accesses uint64
			for b.Loop() {
				m := machine.New(machine.Default())
				e.New(1).Run(m)
				accesses += m.Cache.Counters().DemandAccesses
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
