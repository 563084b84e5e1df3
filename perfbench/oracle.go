package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// oracleDigest returns what the oracle computes for key: a hex digest of
// the expected output, possibly followed by counts. The result is cached
// on disk under the benchmark binary's own hash, so a repeated input in
// the same build skips the (slow) oracle, and a rebuilt program never
// reads a digest an older build wrote.
func (r *run) oracleDigest(key string, compute func() (string, error)) (string, error) {
	exe, err := exeHash()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(r.cfg.dir, "oracle")
	path := filepath.Join(dir, exe[:16]+"-"+key)
	if b, err := os.ReadFile(path); err == nil {
		return strings.TrimSpace(string(b)), nil
	}
	d, err := compute()
	if err != nil {
		return "", fmt.Errorf("oracle %s: %w", key, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(d+"\n"), 0o644); err != nil {
		return "", err
	}
	return d, os.Rename(tmp, path)
}

// exeHash is the hex sha256 of the running benchmark binary.
var exeHash = sync.OnceValues(func() (string, error) {
	p, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(p)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkOutputs compares each operation's output digest with the
// oracle's and fails every operation that disagrees. It returns the
// number of mismatches.
func (r *run) checkOutputs(what string, got map[int]string, want string) int {
	n := 0
	for id, d := range got {
		if d != want {
			r.fail(id, "%s: %v (got %.12s, oracle %.12s)", what, errMismatch, d, want)
			n++
		}
	}
	return n
}
