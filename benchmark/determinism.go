package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// determinismDir holds, per (binary, workload, seed), the simulated
// metrics of the first run, relative to the checkout root.
const determinismDir = ".bench_build/determinism"

// simRecord is what must repeat bit for bit across runs of one seed.
type simRecord struct {
	Metrics map[string]float64 `json:"metrics"`
	Digest  string             `json:"digest"`
}

// checkDeterminism compares a sim run's simulated metrics and post-warmup
// state with the record left by an earlier run of the same binary,
// workload and seed, and leaves a record when there is none. Any
// difference fails the run: a change that only makes the program faster
// must leave every simulated quantity identical.
func checkDeterminism(o options, r *report, metrics map[string]float64, digest string) {
	key, err := binaryHash()
	if err != nil {
		r.fail("determinism guard: %v", err)
		return
	}
	path := filepath.Join(determinismDir, fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, key))
	rec := simRecord{Metrics: metrics, Digest: digest}
	if raw, err := os.ReadFile(path); err == nil {
		var prev simRecord
		if err := json.Unmarshal(raw, &prev); err != nil {
			r.fail("determinism guard: read %s: %v", path, err)
			return
		}
		if prev.Digest != digest {
			r.fail("post-warmup state differs from an earlier run of seed %d: %s vs %s", o.seed, digest, prev.Digest)
		}
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if old, ok := prev.Metrics[n]; !ok || old != metrics[n] {
				r.fail("simulated metric %s = %v differs from an earlier run of seed %d (%v)", n, metrics[n], o.seed, old)
			}
		}
		return
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		err = os.MkdirAll(determinismDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		r.fail("determinism guard: write %s: %v", path, err)
	}
}

// binaryHash identifies the running binary, so records from a different
// build are never compared.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
