package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stackSample is one CPU profile record: its call stack, innermost frame
// first with inlined calls expanded, how many profiler ticks landed on it
// and the CPU time they stand for.
type stackSample struct {
	frames []string
	count  int64
	ns     int64
}

// decodeCPUProfile reads the gzipped profile.proto that runtime/pprof
// writes. It reads only what attribution needs: sample types, samples,
// locations with their lines, functions and the string table.
func decodeCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		types    []uint64 // string index of each sample type
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string index of its name
		strs     []string
	)
	err = eachField(raw, func(num, _ int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			var t uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample: location_id = 1, value = 2, both packed or not
			var s rawSample
			err := eachField(b, func(n, wt int, v uint64, b []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = appendUints(s.locs, wt, v, b)
				case 2:
					s.values, err = appendUints(s.values, wt, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location: id = 1, line = 4 → Line{function_id = 1}
			var id uint64
			var fids []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fids
			return err
		case 5: // function: id = 1, name = 2
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
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
	count, cpu := -1, -1
	for i, t := range types {
		switch str(t) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("profile: not a CPU profile")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if max(count, cpu) >= len(s.values) {
			return nil, errors.New("profile: sample without its values")
		}
		ss := stackSample{count: int64(s.values[count]), ns: int64(s.values[cpu])}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				ss.frames = append(ss.frames, str(funcName[fid]))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField calls fn for each field of a protobuf message: its number, wire
// type, and the value (varint and fixed types) or the bytes (length-delimited).
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		var v uint64
		var payload []byte
		switch wt := int(key & 7); wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wt == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			if wt == 1 {
				v = binary.LittleEndian.Uint64(b)
			} else {
				v = uint64(binary.LittleEndian.Uint32(b))
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(int(key>>3), int(key&7), v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, packed (wire type
// 2) or one per field.
func appendUints(dst []uint64, wt int, v uint64, b []byte) ([]uint64, error) {
	if wt != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
