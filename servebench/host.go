package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// commit is the git commit the binary was built from; run.sh sets it
// when the checkout is a git repository.
var commit = "unknown"

// host identifies where and from what a result was measured, so rows
// from different hosts or sources are never compared as equals.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	// SourceSHA256 digests the repository's Go sources, go.mod files,
	// scripts and BENCHMARK.json, for checkouts that carry no git data.
	SourceSHA256 string `json:"source_sha256"`
	// Sleep10usP50us is the median wall time of time.Sleep(10µs): the
	// host's timer granularity, which bounds any open-loop generator.
	Sleep10usP50us float64 `json:"sleep_10us_p50_us"`
}

func probeHost(root string) host {
	return host{
		CPUModel:       cpuModel(),
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		OSArch:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:         commit,
		SourceSHA256:   sourceDigest(root),
		Sleep10usP50us: sleepGranularity(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sleepGranularity() float64 {
	const n = 51
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		time.Sleep(10 * time.Microsecond)
		d[i] = float64(time.Since(t0)) / 1e3
	}
	slices.Sort(d)
	return d[n/2]
}

// sourceDigest hashes the path and content of every source file under
// root, skipping hidden directories (build output, VCS data).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, ".go"), name == "go.mod", name == "go.sum",
			strings.HasSuffix(name, ".sh"), name == "BENCHMARK.json":
		default:
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00") //nolint:errcheck // hash writes cannot fail
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostSteal is the CPU time the hypervisor has taken from all of this
// machine's CPUs since boot, from the steal column of /proc/stat (in
// USER_HZ ticks of 10 ms). It is 0 where that is not available.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}
