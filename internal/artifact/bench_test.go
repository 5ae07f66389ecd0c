package artifact

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/stream"
)

// BenchmarkAdoptVsBuild weighs adopting a shared plan against building it
// locally, at the sizes the artifact tier's keep-or-delete decision is
// argued on: build is stream.BuildPlan with its audit, decode is Decode
// alone, and adopt is DecodeVerified — what a node pays per plan it takes
// from the disk tier or a peer instead of building.
func BenchmarkAdoptVsBuild(b *testing.B) {
	points := []struct {
		name   string
		proto  protocols.Protocol
		mixers int
		demand int
	}{
		{"PCR-MM-m3-D20", protocols.PCR16(), 3, 20},
		{"PCR-MM-m3-D64", protocols.PCR16(), 3, 64},
		{"Ex1-MM-m4-D20", protocols.Table2()[0], 4, 20},
		{"Ex1-MM-m4-D654", protocols.Table2()[0], 4, 654},
	}
	for _, pt := range points {
		g, err := core.MM.Build(pt.proto.Ratio)
		if err != nil {
			b.Fatal(err)
		}
		cfg := stream.Config{Base: g, Mixers: pt.mixers, Scheduler: stream.MMS}
		k, p := servedPlan(b, core.MM, pt.proto.Ratio, pt.demand, pt.mixers, "MMS")
		data, err := Encode(k, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/build", pt.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stream.BuildPlan(cfg, pt.demand); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/decode", pt.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/adopt", pt.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeVerified(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
