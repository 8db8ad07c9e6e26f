package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
)

// Binary trace format: a gzip stream containing a fixed header, the
// workload name, and one fixed-width record per instruction. The
// format is versioned and self-describing enough to reject foreign
// files; it exists so expensive captures can be snapshotted and
// replayed (fgstpsim -savetrace / -loadtrace).

// traceMagic identifies the file format; traceVersion its revision.
const (
	traceMagic   = 0x46675354 // "FgST"
	traceVersion = 1
)

// On-disk layout, all little-endian. The header is magic, version and
// name length (uint32 each), then the record count (uint64), then the
// name's bytes. Each record is 40 bytes: PC, Addr, Target and NextPC
// (uint64 each), then Class, Dst, Src1, Src2, Src3 and the isa.Flags
// byte, then two zero padding bytes. Seq is implicit (records are
// dense in program order). NextPC repeats the next record's PC, which
// Load checks; only the last record's carries information.
const (
	headerBytes = 20
	recordBytes = 40
)

// Save writes the trace to w in the binary format.
func (t *Trace) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)

	var hdr [headerBytes]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], traceMagic)
	le.PutUint32(hdr[4:], traceVersion)
	le.PutUint32(hdr[8:], uint32(len(t.Name)))
	le.PutUint64(hdr[12:], uint64(len(t.Insts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	var rec [recordBytes]byte
	for i := range t.Insts {
		d := &t.Insts[i]
		le.PutUint64(rec[0:], d.PC)
		le.PutUint64(rec[8:], d.Addr)
		le.PutUint64(rec[16:], d.Target)
		le.PutUint64(rec[24:], t.nextPC(i))
		rec[32], rec[33] = uint8(d.Class), uint8(d.Dst)
		rec[34], rec[35], rec[36] = uint8(d.Src1), uint8(d.Src2), uint8(d.Src3)
		rec[37] = uint8(d.Flags)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// Load reads a trace written by Save. It rejects a file whose records
// do not chain: each record's NextPC must be the next record's PC.
func Load(r io.Reader) (*Trace, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: not a trace file: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)

	var hdr [headerBytes]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	le := binary.LittleEndian
	magic, version, nameLen := le.Uint32(hdr[0:]), le.Uint32(hdr[4:]), le.Uint32(hdr[8:])
	count := le.Uint64(hdr[12:])
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", magic)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible instruction count %d", count)
	}

	// The header count is untrusted: allocate incrementally (bounded
	// initial capacity) so a crafted header cannot force a giant
	// up-front allocation before the record stream proves itself.
	const maxPrealloc = 1 << 20
	prealloc := count
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	t := &Trace{Name: string(name), Insts: make([]isa.DynInst, 0, prealloc)}
	var rec [recordBytes]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated at record %d: %w", i, err)
		}
		d := isa.DynInst{
			PC: le.Uint64(rec[0:]), Addr: le.Uint64(rec[8:]), Target: le.Uint64(rec[16:]),
			Class: isa.Class(rec[32]), Dst: isa.Reg(rec[33]),
			Src1: isa.Reg(rec[34]), Src2: isa.Reg(rec[35]), Src3: isa.Reg(rec[36]),
			Flags: isa.Flags(rec[37]) & isa.FlagsMask,
		}
		// The timing models index latency and scoreboard tables by
		// Class and Reg; out-of-range values must die here, not there.
		if int(d.Class) >= isa.NumClasses {
			return nil, fmt.Errorf("trace: record %d: invalid class %d", i, rec[32])
		}
		for _, r := range [...]isa.Reg{d.Dst, d.Src1, d.Src2, d.Src3} {
			if !r.Valid() && r != isa.RegNone {
				return nil, fmt.Errorf("trace: record %d: invalid register %d", i, uint8(r))
			}
		}
		if i > 0 && t.endPC != d.PC {
			return nil, fmt.Errorf("trace %q: inst %d nextpc %#x but successor pc %#x",
				t.Name, i-1, t.endPC, d.PC)
		}
		t.endPC = le.Uint64(rec[24:])
		t.Insts = append(t.Insts, d)
	}
	return t, nil
}

// SaveFile writes the trace to path.
func (t *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads a trace from path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
