package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
)

// commit is the revision the sources came from, as run.sh found it.
var commit string

// provenance records the host and the code a result came from.
// source_sha256 identifies the sources also where the commit is unknown.
func provenance(workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes the path and contents of every Go source and
// go.mod under root, skipping hidden directories such as build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns this process's peak resident set size (VmHWM) in
// MiB; on Linux getrusage reports ru_maxrss in KiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// runtimeSample is the allocation and GC state at one instant, or the
// work done between two.
type runtimeSample struct {
	mallocs, allocBytes        uint64
	gcCycles                   uint64
	gcCPUSeconds, totalSeconds float64
}

var runtimeMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]rtmetrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return runtimeSample{
		mallocs:      ms.Mallocs,
		allocBytes:   ms.TotalAlloc,
		gcCycles:     s[0].Value.Uint64(),
		gcCPUSeconds: s[1].Value.Float64(),
		totalSeconds: s[2].Value.Float64(),
	}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.mallocs - b.mallocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles,
		a.gcCPUSeconds - b.gcCPUSeconds, a.totalSeconds - b.totalSeconds}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.mallocs + b.mallocs, a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles,
		a.gcCPUSeconds + b.gcCPUSeconds, a.totalSeconds + b.totalSeconds}
}

// allocs returns the objects and bytes allocated during the phase.
func (p *phase) allocs() (objects, bytes float64) {
	return float64(p.work.mallocs), float64(p.work.allocBytes)
}

// addRuntime adds the GC cycle and heap metrics of the phase to m.
func (p *phase) addRuntime(m metrics) {
	ops := float64(p.ops)
	objects, bytes := p.allocs()
	m["gc.cycles_per_op"] = metric{float64(p.work.gcCycles) / ops, "count"}
	m["heap.bytes_per_op"] = metric{bytes / ops, "B"}
	m["heap.objects_per_op"] = metric{objects / ops, "count"}
}
