package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
)

// layersTable maps source paths (relative to the gocast module root) to
// the layer their CPU time is charged to.
//
//go:embed layers.txt
var layersTable string

// Rows of the CPU table that are not source layers.
const (
	rowGC       = "runtime.gc"
	rowRuntime  = "runtime"
	rowUnmapped = "unmapped"
)

// cpuLayers are the layers reported as <layer>.cpu_share, in table order;
// runtime GC, other runtime time and unmapped files have their own rows.
var cpuLayers = []string{
	"sim", "netsim", "membership", "overlay", "tree", "dissem", "sync",
	"coopcast", "core", "store", "fec", "wire", "tcp", "node", "obs", "bench",
}

// minMappedShare is the least share of CPU samples the named layers must
// cover for a traced run to count.
const minMappedShare = 0.90

// gcFuncs are runtime functions whose presence anywhere on a stack marks
// the sample as garbage-collector work.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.gcAssistAlloc1": true, "runtime.gcDrain": true,
	"runtime.gcDrainN": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.gcStart": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.markroot": true, "runtime.scanobject": true,
	"runtime.sweepone": true, "runtime.GC": true,
}

// layerMap resolves module-relative source paths by longest prefix.
type layerMap struct {
	prefixes []string
	layer    map[string]string
}

func loadLayerMap() (*layerMap, error) {
	m := &layerMap{layer: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(layersTable))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("layers.txt: bad line %q", line)
		}
		m.prefixes = append(m.prefixes, f[0])
		m.layer[f[0]] = f[1]
	}
	sort.Slice(m.prefixes, func(i, j int) bool { return len(m.prefixes[i]) > len(m.prefixes[j]) })
	return m, nil
}

// lookup returns the layer of a module-relative path, or "" if unmapped.
func (m *layerMap) lookup(path string) string {
	for _, p := range m.prefixes {
		if strings.HasPrefix(path, p) {
			return m.layer[p]
		}
	}
	return ""
}

// cpuProfile records a CPU profile into memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling, saves the raw profile beside the spans, and
// returns the CPU shares per row.
func (p *cpuProfile) stop(name string) (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, 0, err
	}
	if err := os.WriteFile(filepath.Join(traceDir, name+".cpu.pprof"), p.buf.Bytes(), 0o644); err != nil {
		return nil, 0, err
	}
	lm, err := loadLayerMap()
	if err != nil {
		return nil, 0, err
	}
	return attributeCPU(p.buf.Bytes(), lm)
}

// reportCPU emits <layer>.cpu_share for every layer plus the runtime,
// GC and unmapped rows, and fails the run if named layers cover too
// little of the profile.
func reportCPU(r *report, shares map[string]float64, samples int64) {
	for _, l := range cpuLayers {
		r.ratio(l+".cpu_share", shares[l], 1)
	}
	r.ratio("runtime.cpu_share", shares[rowRuntime], 1)
	r.ratio("runtime.gc_cpu_share", shares[rowGC], 1)
	r.ratio("unmapped.cpu_share", shares[rowUnmapped], 1)
	r.count("trace.cpu_samples", samples)
	if samples == 0 {
		r.fail("CPU profile holds no samples")
	} else if mapped := 1 - shares[rowUnmapped]; mapped < minMappedShare {
		r.fail("named layers cover %.1f%% of CPU samples, want >= %.0f%%", 100*mapped, 100*minMappedShare)
	}
}

// attributeCPU charges each sample to one row: GC work if a collector
// function is on the stack, else the layer of the innermost frame in the
// gocast module (so runtime work such as map lookups and allocation is
// charged to the layer that asked for it), else the runtime row. It
// returns each row's share of sampled CPU time and the sample count.
func attributeCPU(raw []byte, lm *layerMap) (map[string]float64, int64, error) {
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	var total float64
	weights := map[string]float64{}
	for _, s := range prof.samples {
		row := ""
		gc := false
		for _, locID := range s.locs {
			for _, fnID := range prof.locLines[locID] {
				fn := prof.funcs[fnID]
				if gcFuncs[fn.name] {
					gc = true
				}
				if row == "" {
					if rel, ok := moduleRelative(fn.file); ok {
						if row = lm.lookup(rel); row == "" {
							row = rowUnmapped
						}
					}
				}
			}
		}
		switch {
		case gc:
			row = rowGC
		case row == "":
			row = rowRuntime
		}
		weights[row] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for k, v := range weights {
		shares[k] = v / total
	}
	return shares, int64(len(prof.samples)), nil
}

// moduleRelative strips the module prefix that -trimpath gives gocast
// source files ("gocast@v0.0.0/" for the program, "gocast/" for the
// benchmark's own module) and reports whether file belongs to either.
func moduleRelative(file string) (string, bool) {
	head, rest, ok := strings.Cut(file, "/")
	if ok && (head == "gocast" || strings.HasPrefix(head, "gocast@")) {
		return rest, true
	}
	return "", false
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location -> function IDs, innermost first
	funcs    map[uint64]profFunc
}

type profSample struct {
	locs  []uint64 // leaf first
	value float64  // CPU nanoseconds (or sample count)
}

type profFunc struct{ name, file string }

// parseProfile decodes a gzipped pprof protobuf (profile.proto): samples
// (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	type rawFunc struct{ id, name, file uint64 }
	var fns []rawFunc
	var strs []string
	err = pbFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					vals = pbAppendUints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = float64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var lines []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							lines = append(lines, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = lines
			return err
		case 5: // Function
			var f rawFunc
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			fns = append(fns, f)
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, f := range fns {
		p.funcs[f.id] = profFunc{name: str(f.name), file: str(f.file)}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated integer field, packed (data) or not (v).
func pbAppendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
