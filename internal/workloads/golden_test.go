package workloads

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"testing"
)

// Golden trace hashes: the first 25k instructions of every kernel's
// timed region, hashed over the architecturally meaningful fields.
// These pin the functional behaviour of the executor and every kernel:
// any unintended semantic change to the ISA, executor or a kernel
// breaks the corresponding hash. Regenerate deliberately with the
// snippet in the test below if a kernel is intentionally changed.
var goldenTraceHashes = map[string]uint64{
	"bwaves":     0xbc29f0c6d939d59a,
	"milc":       0x7751e53171908237,
	"namd":       0xb4e6c11f8053038c,
	"soplex":     0xd9d87ec6655574ef,
	"povray":     0x93eab2c6d273870,
	"lbm":        0x6d7c76d891449cb9,
	"sphinx3":    0xaab2a234de28c5b0,
	"gamess":     0x18fb7f643ea6964b,
	"gromacs":    0x2848dedef0896264,
	"cactusADM":  0xed1e475db860a1f5,
	"leslie3d":   0x8bb54045e1b53f47,
	"dealII":     0x5f35bd1f92f18259,
	"calculix":   0x4bf541f4e66b7ad,
	"GemsFDTD":   0xdc2b67badff9ebb5,
	"tonto":      0x2b99b9c50c9c2de5,
	"wrf":        0xafd7dc2caf6dca30,
	"zeusmp":     0x706953418b7ef28c,
	"perlbench":  0x8941f8e4d6bfc24a,
	"bzip2":      0x2dc2151e34d0d619,
	"gcc":        0x2e11ed2e026036cd,
	"mcf":        0xff84eb53ce2f88a8,
	"gobmk":      0x4d090e255f13a84d,
	"hmmer":      0xadd00123b92bd7d4,
	"sjeng":      0xe261c9b359726539,
	"libquantum": 0xf033a7e971d8d188,
	"h264ref":    0x452081d4770144c4,
	"omnetpp":    0xa23d00fb1796be57,
	"astar":      0xb12513e9e7ca2416,
	"xalancbmk":  0xdb75791d9f4512c0,
}

func traceHash(w Workload) uint64 {
	tr := w.Trace(25_000)
	h := fnv.New64a()
	for i := range tr.Insts {
		d := &tr.Insts[i]
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%v|%d\n",
			d.PC, d.Class, d.Dst, d.Src1, d.Src2, d.Src3, d.Addr, d.Taken(), d.Target)
	}
	return h.Sum64()
}

// TestGoldenTraces pins every kernel's dynamic behaviour.
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want, ok := goldenTraceHashes[w.Name]
			if !ok {
				t.Fatalf("no golden hash recorded for %s", w.Name)
			}
			if got := traceHash(w); got != want {
				t.Errorf("trace hash %#x, want %#x — kernel or executor semantics changed; "+
					"if intentional, regenerate goldenTraceHashes", got, want)
			}
		})
	}
}

// Golden trace files: the SHA-256 of trace.Save's output for the first
// 20k instructions of three kernels' timed regions. Where
// goldenTraceHashes pins the stream, these pin its on-disk encoding,
// every byte of it: the record layout, the flag bits, the next-PC
// words and the gzip settings. fgstpd keys its result caches on these
// bytes, so a change here moves every cached entry.
var goldenSaveDigests = map[string]string{
	"gcc":      "eb2932e8616ebb12e2156b8e4e393f20b396a2d43f4203fa6b878b14043452db",
	"mcf":      "04efb5d1c753ddbe610f3570cc31774b645dc0cd44a5d203d75269c7e263fae2",
	"calculix": "c133dfcd5327d1ea005419a901e4022840a9c7b115bc4579173dacf269a1b388",
}

// TestGoldenSaveDigests pins the trace file format.
func TestGoldenSaveDigests(t *testing.T) {
	for name, want := range goldenSaveDigests {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		var buf bytes.Buffer
		if err := w.Trace(20_000).Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: saved trace sha256 %s, want %s — the trace file format changed", name, got, want)
		}
	}
}
