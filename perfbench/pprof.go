package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages whose CPU share the traced run reports;
// every other leaf frame counts as "other".
var cpuLayers = []string{"runtime", "sim", "netsim", "srm", "core", "stats", "sha256", "experiment", "lossinfer", "other"}

// layerOf maps a profiled function name to its layer: the repository
// package that defines it, sha256 for either SHA-256 implementation,
// runtime for the runtime, its assembly symbols (gcWriteBarrier,
// memeqbody: no package qualifier) and the internal packages it is
// built from (map iteration lives in internal/runtime/maps), and other
// otherwise.
func layerOf(fn string) string {
	if fn != "" && !strings.Contains(fn, ".") {
		return "runtime"
	}
	// The package path ends at the first '.' after its last '/'; cut
	// receiver and type-parameter text first, since either may contain
	// '/' or '.'.
	name := fn
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	pkg := name
	if i := strings.Index(name[strings.LastIndex(name, "/")+1:], "."); i >= 0 {
		pkg = name[:strings.LastIndex(name, "/")+1+i]
	}
	switch {
	case strings.HasPrefix(pkg, "cesrm/internal/"):
		l := strings.TrimPrefix(pkg, "cesrm/internal/")
		for _, known := range cpuLayers {
			if l == known {
				return l
			}
		}
		return "other"
	case strings.HasSuffix(pkg, "/sha256"):
		return "sha256"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi":
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns the share
// of sampled CPU time, in percent, whose leaf frame lies in each layer.
// It decodes only the profile.proto fields it needs: sample (2),
// location (4), function (5) and string_table (6).
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf uint64
		vals []uint64
	}
	var (
		samples []sample
		types   []uint64              // sample_type string indices
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 1:
			return pbFields(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2:
			var locs, vals []uint64
			if err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, d)
				case 2:
					vals = appendPacked(vals, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], vals: vals})
			}
		case 4:
			var id, fnID uint64
			first := true
			if err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first entry is the innermost inlined frame
					if first {
						first = false
						return pbFields(d, func(lf int, lv uint64, _ []byte) error {
							if lf == 1 {
								fnID = lv
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fnID
		case 5:
			var id uint64
			var name int64
			if err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	// CPU profiles carry samples/count and cpu/nanoseconds; weigh by
	// the latter.
	valueIdx := len(types) - 1
	for i, t := range types {
		if int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	var total float64
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.vals) {
			continue
		}
		value := float64(int64(s.vals[valueIdx]))
		name := ""
		if idx, ok := fnName[locFn[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[layerOf(name)] += value
		total += value
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for l := range shares {
		shares[l] *= 100 / total
	}
	return shares, nil
}

// appendPacked appends a repeated scalar field's values, whether the
// encoder packed them (data set) or wrote one varint (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (data is non-nil only for the latter).
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}
