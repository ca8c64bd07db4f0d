package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "Key:   123 kB" line of /proc/self/status; ok is
// false where the file or the key does not exist (non-Linux hosts).
func procStatusKB(key string) (kb float64, ok bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, found := strings.CutPrefix(sc.Text(), key+":")
		if !found {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		return v, err == nil
	}
	return 0, false
}

// refNominal is what refKernel takes on the baseline box when nothing else
// competes for the core. Times are reported at this machine speed (see
// atNominal), so on a calm baseline box they read as measured.
const refNominal = 1700 * time.Microsecond

// refReps is how many times refSample runs the kernel.
const refReps = 8

const refN = 160

var refMatrix [refN * refN]float64

// refKernel times a fixed piece of floating-point work that belongs to the
// benchmark, not to the program: filling a 160 × 160 diagonally dominant
// matrix (200 KB, cache-resident like the LP bases) and factorizing it in
// place, twice. A neighbour on the shared host slows it by about as much as
// it slows an LP solve, which a register-only loop does not show.
func refKernel() time.Duration {
	start := time.Now()
	a := refMatrix[:]
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < refN; i++ {
			for j := 0; j < refN; j++ {
				a[i*refN+j] = float64((i*31+j*17)%23) + 1
			}
			a[i*refN+i] += 500
		}
		for k := 0; k < refN; k++ {
			pivot := a[k*refN+k]
			rowK := a[k*refN+k+1 : (k+1)*refN]
			for i := k + 1; i < refN; i++ {
				f := a[i*refN+k] / pivot
				a[i*refN+k] = f
				rowI := a[i*refN+k+1 : (i+1)*refN]
				for j := range rowI {
					rowI[j] -= f * rowK[j]
				}
			}
		}
	}
	return time.Since(start)
}

// refSample is the mean of refReps runs of the kernel: the machine's speed
// over the ~14 ms it takes.
func refSample() time.Duration {
	var sum time.Duration
	for i := 0; i < refReps; i++ {
		sum += refKernel()
	}
	return sum / refReps
}

// atNominal scales a measured time to the nominal machine speed. ref is the
// reference kernel's time around the measurement and share is how much of
// the kernel's slow-down the measured work shares (workload.refShare): the
// result is d × (refNominal ÷ ref)^share seconds, so a phase in which the
// host ran everything a third slower is taken back out.
func atNominal(d, ref time.Duration, share float64) float64 {
	if ref <= 0 || share == 0 {
		return d.Seconds()
	}
	return d.Seconds() * math.Pow(float64(refNominal)/float64(ref), share)
}

// fingerprint identifies the machine and build a record was measured on.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newFingerprint() fingerprint {
	fp := fingerprint{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the acceptance rule for this benchmark is stated in. With fewer than
// two values all three are the single value (or 0).
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

func seconds(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x.Seconds()
	}
	return out
}
