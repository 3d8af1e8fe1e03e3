package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer self-time
// shares: each function's flat time, as `go tool pprof -top` lists it, is
// charged to the function's package.

// layerOf maps a package path to the benchmark layer it is reported under
// ("" for packages outside every layer).
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "secddr/internal/"); ok {
		for _, l := range selfFracLayers {
			if rest == l {
				return l
			}
		}
		return ""
	}
	if pkg == "encoding/json" || pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") {
		return "wire"
	}
	return ""
}

// pkgOf extracts the package path from a symbol name such as
// "secddr/internal/memctrl.(*Controller).Tick" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile lists the CPU profile at path with the Go toolchain's pprof
// and returns each layer's share of the sampled CPU time.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ns", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return foldTop(string(out))
}

// foldTop folds `pprof -top -unit=ns` output, whose rows read
// "flat flat% sum% cum cum% function", by the function's layer.
func foldTop(top string) (map[string]float64, error) {
	var total float64
	byLayer := make(map[string]float64)
	rows := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		if flat == 0 {
			continue
		}
		total += flat
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		if l := layerOf(pkgOf(fn)); l != "" {
			byLayer[l] += flat
		}
	}
	if !rows {
		return nil, errors.New("pprof: no table in its output")
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}
