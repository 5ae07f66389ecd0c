package audit

import (
	"fmt"
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/sched"
)

// BenchmarkCheckPacked times the packed plan audit, the gate of every plan
// a cache holds, on MM plans of PCR16 and Table 2's Ex.1 scheduled by MMS
// on four mixers, at three demands.
func BenchmarkCheckPacked(b *testing.B) {
	for _, proto := range []protocols.Protocol{protocols.PCR16(), protocols.Table2()[0]} {
		g, err := minmix.Build(proto.Ratio)
		if err != nil {
			b.Fatal(err)
		}
		for _, demand := range []int{20, 64, 654} {
			pf, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, demand)
			if err != nil {
				b.Fatal(err)
			}
			var k sched.Kernel
			if err := k.MMS(pf, 4); err != nil {
				b.Fatal(err)
			}
			p := plancache.NewPacked(pf, k.Assignments(), "MMS", 4, k.Cycles(), k.Peak())
			b.Run(fmt.Sprintf("%s/D=%d", proto.Key, demand), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if r := CheckPacked(p); !r.Clean() {
						b.Fatal(r.Err())
					}
				}
			})
		}
	}
}
