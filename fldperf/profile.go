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

// cpuByPackage folds a gzipped pprof CPU profile (as runtime/pprof
// writes it) into self samples per Go package: each sample is charged to
// the innermost function of its leaf location. Only the profile.proto
// fields that attribution needs are decoded.
func cpuByPackage(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("open cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("read cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		leafFunc  = map[uint64]uint64{} // location id -> innermost function id
		sampleLoc []uint64              // leaf location per sample
		sampleN   []int64               // sample count per sample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var loc uint64
			var n int64
			haveLoc, haveN := false, false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					if !haveLoc {
						ids, err := varints(v, b)
						if err == nil && len(ids) > 0 {
							loc, haveLoc = ids[0], true
						}
						return err
					}
				case 2: // value: [samples, cpu nanoseconds]
					if !haveN {
						vals, err := varints(v, b)
						if err == nil && len(vals) > 0 {
							n, haveN = int64(vals[0]), true
						}
						return err
					}
				}
				return nil
			})
			sampleLoc = append(sampleLoc, loc)
			sampleN = append(sampleN, n)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !haveLine {
						haveLine = true
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode cpu profile: %w", err)
	}
	for i, loc := range sampleLoc {
		pkg := "?"
		if s := funcName[leafFunc[loc]]; s > 0 && int(s) < len(strs) {
			pkg = packageOf(strs[s])
		}
		into[pkg] += sampleN[i]
	}
	return nil
}

// packageOf returns the import path of a Go symbol such as
// "flexdriver/internal/sim.(*Engine).pop" or "runtime.mallocgc".
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 { // generic instantiation
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	if dot := strings.IndexByte(sym[slash:], '.'); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// varints returns a repeated integer field's values: a single unpacked
// value (b == nil) or a packed run.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
