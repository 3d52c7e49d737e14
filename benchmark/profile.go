package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuLayers are the buckets a traced run's CPU time is split into: the
// repository's packages on the default sort paths, then the Go runtime's
// collector and allocator, system calls, and everything else.
var cpuLayers = []string{
	"xmltok", "keys", "keypath", "core", "xstack", "extsort", "sortkey",
	"runstore", "fence", "em", "rt_gc", "rt_alloc", "syscall", "other",
}

// layerOf assigns one CPU sample, given its frames leaf first. GC work
// (including an allocation's assist) wins over allocation, allocation over
// system calls; otherwise the sample belongs to the leaf-most frame in a
// package of this module, so standard-library helpers a layer calls count
// as that layer's time.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "rt_gc"
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" || f == "runtime.growslice" {
			return "rt_alloc"
		}
	}
	for _, f := range frames {
		switch packageOf(f) {
		case "syscall", "internal/runtime/syscall", "runtime/internal/syscall":
			return "syscall"
		}
	}
	for _, f := range frames {
		pkg := packageOf(f)
		if pkg == "nexsort" || strings.HasPrefix(pkg, "nexsort/") {
			name := strings.TrimPrefix(pkg, "nexsort/internal/")
			for _, l := range cpuLayers {
				if l == name {
					return l
				}
			}
			return "other"
		}
	}
	return "other"
}

// packageOf returns the import path of a profiled function name such as
// "nexsort/internal/em.(*Device).ReadBlock".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuByLayer decodes a gzipped profile.proto CPU profile, as written by
// runtime/pprof, and sums its CPU seconds by layer.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			valueIdx = i
		}
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var frames []string
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		frames = frames[:0]
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		out[layerOf(frames)] += float64(s.values[valueIdx]) / 1e9
	}
	return out, nil
}

// The subset of profile.proto the roll-up needs.
type profile struct {
	sampleTypes []uint64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]uint64   // function id -> string-table index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

var errProto = errors.New("malformed profile")

// field is one decoded protobuf field: a varint value or a length-delimited
// payload (fixed-width fields are skipped).
type field struct {
	num  uint64
	wire uint64
	v    uint64
	data []byte
}

// fields decodes one protobuf message's top-level fields.
func fields(b []byte, each func(f field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := field{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := each(f); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field's values, packed or not.
func varints(dst []uint64, f field) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// firstVarint returns the value of field num in a message, or 0.
func firstVarint(msg []byte, num uint64) (uint64, error) {
	var v uint64
	err := fields(msg, func(f field) error {
		if f.num == num && f.wire == 0 {
			v = f.v
		}
		return nil
	})
	return v, err
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := fields(raw, func(f field) error {
		if f.wire != 2 {
			return nil
		}
		switch f.num {
		case 1: // sample_type
			t, err := firstVarint(f.data, 1)
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(f.data, func(g field) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = varints(s.locations, g)
				case 2:
					vals, err = varints(vals, g)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(f.data, func(g field) error {
				switch {
				case g.num == 1 && g.wire == 0:
					id = g.v
				case g.num == 4 && g.wire == 2: // line
					fn, err := firstVarint(g.data, 1)
					fns = append(fns, fn)
					return err
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(f.data, func(g field) error {
				if g.wire == 0 {
					switch g.num {
					case 1:
						id = g.v
					case 2:
						name = g.v
					}
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	return p, err
}
