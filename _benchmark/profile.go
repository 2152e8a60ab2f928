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

// hostBuckets are the host_share.* buckets, in report order. Each CPU
// profile sample goes to the package of its innermost frame.
var hostBuckets = []string{
	"sim", "cpu", "cache", "coherence", "bus", "core", "crypto", "memsec",
	"integrity", "mem", "workload", "driver", "farm", "serve",
	"net_http_json", "runtime_sched", "runtime_gc", "other",
}

// modulePkgs are the program's packages with a bucket of their own.
var modulePkgs = map[string]bool{
	"sim": true, "cpu": true, "cache": true, "coherence": true, "bus": true,
	"core": true, "crypto": true, "memsec": true, "integrity": true,
	"mem": true, "workload": true, "driver": true, "farm": true, "serve": true,
}

// gcPrefixes name the runtime functions of allocation, garbage
// collection and heap management.
var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gc", "runtime.mallocgc", "runtime.newobject",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.mapassign",
	"runtime.scan", "runtime.greyobject", "runtime.markroot", "runtime.findObject",
	"runtime.heapBits", "runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*pageAlloc)", "runtime.(*sweepLocked)",
	"runtime.sweepone", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*scavenger",
	"runtime.memclrNoHeapPointers", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.typePointers", "runtime.(*typePointers)", "runtime.spanOf",
	"runtime.nextFreeFast", "runtime.(*gcBits)", "runtime.sysUsed", "runtime.madvise",
	"runtime.wbMove", "runtime.typedmemmove", "runtime.typedslicecopy",
}

// netPkgs are the packages of the HTTP/JSON path.
var netPkgs = []string{
	"net", "net/", "encoding/json", "bufio", "internal/poll", "syscall",
	"internal/syscall", "mime", "vendor/golang.org/x/net", "reflect", "strconv",
	"unicode/utf8", "net/textproto",
}

// bucketOf maps a profile function name to its host_share bucket.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "senss/internal/"):
		top, _, _ := strings.Cut(strings.TrimPrefix(pkg, "senss/internal/"), "/")
		if modulePkgs[top] {
			return top
		}
		return "other"
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "sync" || strings.HasPrefix(pkg, "sync/") || pkg == "internal/sync":
		if pkg == "runtime" {
			for _, p := range gcPrefixes {
				if strings.HasPrefix(fn, p) {
					return "runtime_gc"
				}
			}
		}
		return "runtime_sched"
	}
	for _, p := range netPkgs {
		if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) || strings.HasPrefix(pkg, p+"/") {
			return "net_http_json"
		}
	}
	return "other"
}

// packageOf returns the import path of a Go symbol name such as
// "senss/internal/sim.(*Proc).Sleep" or "encoding/json.Marshal".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// hostShares returns each bucket's share of the profile's CPU time.
func hostShares(selfByFunc map[string]int64) map[string]float64 {
	var total int64
	byBucket := map[string]int64{}
	for fn, v := range selfByFunc {
		byBucket[bucketOf(fn)] += v
		total += v
	}
	out := make(map[string]float64, len(hostBuckets))
	for _, b := range hostBuckets {
		out["host_share."+b] = ratio(float64(byBucket[b]), float64(total))
	}
	return out
}

// sample is one profile sample: its leaf location and CPU time.
type sample struct {
	loc uint64
	v   int64
}

// selfTimeByFunc decodes a gzipped pprof CPU profile and returns, per
// innermost function name, the summed value of its last sample type (CPU
// nanoseconds). It reads only the profile.proto fields it needs.
func selfTimeByFunc(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		locLeaf = map[uint64]uint64{} // location id -> innermost function id
		samples []sample
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[len(vals)-1]})
			}
		case 4: // Location
			var id, leaf uint64
			seen := false
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if seen {
						return nil
					}
					seen = true
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeaf[id] = leaf
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcs[locLeaf[s.loc]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += s.v
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func eachField(data []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProfile
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProfile
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProfile
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errBadProfile
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProfile
			}
			data = data[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProfile, wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errBadProfile = errors.New("malformed pprof profile")

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
