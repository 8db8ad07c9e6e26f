package program

import (
	"testing"

	"repro/internal/isa"
)

// BenchmarkExecutorThroughput measures functional simulation speed
// (dynamic instructions per benchmark op).
func BenchmarkExecutorThroughput(b *testing.B) {
	bb := NewBuilder("bench")
	bb.Li(isa.R1, 0x100000)
	bb.Li(isa.R2, 10000)
	bb.Label("loop")
	bb.Ld(isa.R3, isa.R1, 0)
	bb.Add(isa.R4, isa.R3, isa.R4)
	bb.St(isa.R4, isa.R1, 8)
	bb.Addi(isa.R1, isa.R1, 16)
	bb.Addi(isa.R2, isa.R2, -1)
	bb.Bne(isa.R2, isa.R0, "loop")
	bb.Halt()
	p := bb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewExecutor(p)
		e.Run(0, nil)
	}
	b.ReportMetric(60000, "insts/op")
}
