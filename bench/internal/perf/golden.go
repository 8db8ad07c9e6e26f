package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// GoldenFile is where the golden digests live, relative to the
// repository root.
const GoldenFile = "bench/fgstpperf/golden.json"

// Golden maps each canonical request (Request.Key) to the SHA-256 of
// the stdout it must produce.
type Golden map[string]string

// AllRequests is every output the three workloads can produce: the
// paper evaluation, the 58 whole-program runs, the 232 sim documents
// and the 18 sweep unit documents.
func AllRequests() []Request {
	out := []Request{PaperEval()}
	for _, r := range WholeProgram() {
		out = append(out, r.Request())
	}
	for _, k := range SimKeys() {
		out = append(out, k.Request())
	}
	for _, u := range SweepUnits() {
		out = append(out, u.Request())
	}
	return out
}

// Digest is the hex SHA-256 of b.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// LoadGolden reads the golden digests under root.
func LoadGolden(root string) (Golden, error) {
	data, err := os.ReadFile(filepath.Join(root, GoldenFile))
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// Save writes the digests under root, keys sorted.
func (g Golden) Save(root string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, GoldenFile), append(data, '\n'), 0o644)
}

// Check reports whether out is the golden output of req.
func (g Golden) Check(req Request, out []byte) error {
	want, ok := g[req.Key()]
	if !ok {
		return fmt.Errorf("%s: no golden digest", req.Key())
	}
	if got := Digest(out); got != want {
		return fmt.Errorf("%s: output digest %.12s, golden %.12s", req.Key(), got, want)
	}
	return nil
}
