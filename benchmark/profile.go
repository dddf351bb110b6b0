package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced pass ends with a leg that runs the op stream under the
// runtime's CPU profiler (started and stopped from here, outside the
// program) and charges every sample to one layer. That is the share table:
// unlike the ladder's differences of medians it needs no probe to stand in
// for work done inside another layer's call.
//
// A sample belongs to the layer of the innermost frame that lies in one of
// the layer packages below, so memory allocation, JSON encoding and
// geometry helpers count for the layer that called them, a push-down filter
// of the engine that runs inside a store scan counts for the engine, and
// the decoding it does counts for compress. A stack with no such frame is
// the harness itself ("bench": request and recorder construction) or the
// runtime's own goroutines ("runtime": background GC, scheduler).
const modulePrefix = "github.com/tman-db/tman/internal/"

var layerOfPackage = []struct{ pkg, layer string }{
	{"httpapi", "httpapi"},
	{"engine", "engine"},
	{"index/", "index"},
	{"cache", "cache"},
	{"kvstore", "kvstore"},
	{"compress", "compress"},
	{"similarity", "similarity"},
}

// profileLayers are the rows of the share table, in stack order.
var profileLayers = []string{"httpapi", "engine", "index", "cache", "kvstore", "compress", "similarity", "runtime", "bench"}

// layerOfFunc maps a function name as the profile spells it
// ("github.com/tman-db/tman/internal/kvstore.(*region).scan") to its layer,
// "" when the function belongs to none.
func layerOfFunc(name string) string {
	if !strings.HasPrefix(name, modulePrefix) {
		return ""
	}
	rest := name[len(modulePrefix):]
	for _, l := range layerOfPackage {
		if strings.HasPrefix(rest, l.pkg) && (strings.HasSuffix(l.pkg, "/") || strings.HasPrefix(rest[len(l.pkg):], ".")) {
			return l.layer
		}
	}
	return ""
}

// layerShares parses a gzipped pprof CPU profile and returns each layer's
// share of the samples, and the number of samples.
func layerShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]float64{}
	total := 0.0
	for _, s := range prof.samples {
		layer := "runtime"
		for _, loc := range s.locations { // innermost first
			found := ""
			for _, fn := range prof.locations[loc] { // innermost inlined call first
				name := prof.functions[fn]
				if found = layerOfFunc(name); found != "" {
					break
				}
				if strings.HasPrefix(name, "main.") {
					layer = "bench" // unless a layer frame lies further out
				}
			}
			if found != "" {
				layer = found
				break
			}
		}
		counts[layer] += float64(s.count)
		total += float64(s.count)
	}
	shares := make(map[string]float64, len(counts))
	for l, c := range counts {
		shares[l] = ratio(c, total)
	}
	return shares, int(total), nil
}

// profile is the part of a pprof profile the share table needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]string   // function id → name
}

type profSample struct {
	locations []uint64 // innermost first
	count     int64    // first value: samples
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b the bytes of a length-delimited one.
func pbFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := pbVarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch tag & 7 {
		case 0:
			if v, n = pbVarint(msg); n == 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			width := 8
			if tag&7 == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			for i := width - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[width:]
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d", tag&7)
		}
		if err := fn(int(tag>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (v uint64, n int) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// pbRepeated appends one occurrence of a repeated varint field, which the
// encoder may have packed into a length-delimited run.
func pbRepeated(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			return nil, errTruncated
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst, nil
}

// parseProfile reads perftools.profiles.Profile: sample = 2, location = 4,
// function = 5, string_table = 6.
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	err := pbFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s profSample
			var values []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locations, err = pbRepeated(s.locations, v, b)
				case 2:
					values, err = pbRepeated(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcName {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}
