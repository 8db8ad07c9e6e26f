package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := Capture(sampleProgram(), 0)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Name != orig.Name {
		t.Errorf("name %q != %q", back.Name, orig.Name)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("length %d != %d", back.Len(), orig.Len())
	}
	for i := range orig.Insts {
		if orig.Insts[i] != back.Insts[i] {
			t.Fatalf("record %d differs:\n  %+v\n  %+v", i, orig.Insts[i], back.Insts[i])
		}
	}
	last := orig.Len() - 1
	if back.nextPC(last) != orig.nextPC(last) {
		t.Errorf("final next pc %#x, want %#x", back.nextPC(last), orig.nextPC(last))
	}
}

func TestSaveLoadFile(t *testing.T) {
	orig := Capture(sampleProgram(), 20)
	path := filepath.Join(t.TempDir(), "x.trace")
	if err := orig.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if back.Len() != 20 {
		t.Errorf("loaded %d records", back.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	// Valid gzip of wrong content.
	var buf bytes.Buffer
	orig := Capture(sampleProgram(), 5)
	orig.Save(&buf)
	data := buf.Bytes()
	// Truncate mid-stream.
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated trace accepted")
	}
}

// rewrite decompresses a saved trace, lets edit change the raw bytes,
// and compresses the result again.
func rewrite(t *testing.T, saved []byte, edit func(raw []byte)) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	edit(raw)
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write(raw)
	zw.Close()
	return out.Bytes()
}

// A record's NextPC is redundant with its successor's PC, so Load
// holds the two to agreement: a file whose chain breaks is corrupt.
func TestLoadRejectsBrokenChain(t *testing.T) {
	orig := Capture(sampleProgram(), 0)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	nextPC := func(i int) int { return headerBytes + len(orig.Name) + i*recordBytes + 24 }
	// Unchanged bytes load: the crafting itself is sound.
	if _, err := Load(bytes.NewReader(rewrite(t, buf.Bytes(), func([]byte) {}))); err != nil {
		t.Fatalf("re-compressed valid trace rejected: %v", err)
	}
	broken := rewrite(t, buf.Bytes(), func(raw []byte) {
		binary.LittleEndian.PutUint64(raw[nextPC(3):], 0xdead)
	})
	if _, err := Load(bytes.NewReader(broken)); err == nil || !strings.Contains(err.Error(), "nextpc") {
		t.Errorf("broken nextpc chain: err = %v, want a nextpc error", err)
	}
	// The last record has no successor: its NextPC is data, not a
	// chain link, and survives the round trip.
	last := orig.Len() - 1
	moved := rewrite(t, buf.Bytes(), func(raw []byte) {
		binary.LittleEndian.PutUint64(raw[nextPC(last):], 0xbeef)
	})
	back, err := Load(bytes.NewReader(moved))
	if err != nil {
		t.Fatalf("trace with a different final next pc rejected: %v", err)
	}
	if back.nextPC(last) != 0xbeef {
		t.Errorf("final next pc %#x, want 0xbeef", back.nextPC(last))
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/path/x.trace"); err == nil {
		t.Error("missing file accepted")
	}
}
