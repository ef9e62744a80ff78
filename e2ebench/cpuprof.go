package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects a runtime/pprof CPU profile in memory.
type cpuProfile struct{ buf bytes.Buffer }

// startCPUProfile starts profiling; a nil result means tracing is off.
func (b *bench) startCPUProfile() (*cpuProfile, error) {
	if b.tr == nil {
		return nil, nil
	}
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// finish stops profiling and sets <module>.cpu_frac for every module
// in cpuModules: each sample is charged to the nearest
// exegpt/internal/<module> frame on its stack (inlined frames count),
// to other_internal when that module is not listed, and to no_internal
// when the stack has no internal frame (runtime background work and
// this benchmark's own code, except the reference workload, which is
// left out).
func (p *cpuProfile) finish(b *bench) error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	shares, total, err := moduleShares(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	fmt.Printf("cpu profile: %d samples\n", total)
	for _, m := range cpuModules {
		b.set(m+".cpu_frac", shares[m])
	}
	return nil
}

// refFuncPrefix names the reference workload's functions (speed.go),
// whose samples the shares leave out.
const refFuncPrefix = "main.(*refWorker)."

// moduleOf maps a function name to its internal module, or "".
func moduleOf(fn string) string {
	const prefix = "exegpt/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// moduleShares decodes a gzipped pprof profile and returns each
// module's share of the sample weight and the sample count.
func moduleShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	weights := map[string]float64{}
	total := 0.0
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[len(s.values)-1])
		mod := "no_internal"
	stack:
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				name := prof.funcName(fn)
				if strings.HasPrefix(name, refFuncPrefix) {
					mod = ""
					break stack
				}
				if m := moduleOf(name); m != "" {
					mod = m
					if !known[m] {
						mod = "other_internal"
					}
					break stack
				}
			}
		}
		if mod == "" {
			continue // the reference workload is not part of the program
		}
		weights[mod] += w
		total += w
	}
	shares := map[string]float64{}
	if total > 0 {
		for m, w := range weights {
			shares[m] = w / total
		}
	}
	return shares, len(prof.samples), nil
}

// profile is the subset of the pprof protobuf the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs    map[uint64]int64    // function ID -> string-table index of its name
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i, ok := p.funcs[id]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, v, data)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field that may be packed
// (data != nil) or not (one value v per occurrence).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with the field
// number and either the varint value (data nil) or the length-delimited
// payload (data non-nil, possibly empty).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
