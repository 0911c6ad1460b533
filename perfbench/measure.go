package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/rng"
)

// scale fixes the input sizes. fullScale is what BENCHMARK.json's
// workloads run; quickScale keeps the package test fast.
type scale struct {
	knN          int // trials-kn vertex count
	rrN, rrD     int // trials-regular-dense graph
	serveN       int // serve-jobs-mixed complete-virtual vertex count
	sweepN       int // sweep-variants random-regular graph
	sweepD       int
	trialsPerJob int // trials in one library job (Runner.Run call)
	setupReps    int // set-ups per untraced run; setup_s is their median
}

var (
	fullScale = scale{knN: 1 << 20, rrN: 1 << 14, rrD: 128, serveN: 4096, sweepN: 1 << 13, sweepD: 32, trialsPerJob: 2, setupReps: 5}
	// quickScale keeps n large enough that the Red-consensus gate holds
	// with overwhelming probability (δ is at least 6 standard deviations of
	// the initial imbalance).
	quickScale = scale{knN: 1 << 12, rrN: 1 << 12, rrD: 64, serveN: 4096, sweepN: 1 << 9, sweepD: 16, trialsPerJob: 2, setupReps: 1}
)

// bench is one workload run: its inputs, and what it measured.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	sc       scale
	dir      string  // build directory: work files and trace output
	work     string  // per-run scratch directory (stores), removed at exit
	tr       *tracer // nil on untraced runs
	// plant corrupts one answer before its check, so the test can prove
	// the checks are not vacuous.
	plant bool

	attempted, failed int
	metrics           map[string]float64
	notes             map[string]string // table annotations (sample counts)
}

// seedFor derives an input seed from the workload seed: the same workload
// seed always gives the same inputs.
func (b *bench) seedFor(labels ...uint64) uint64 { return rng.ChildSeed(b.seed, labels...) }

// check counts one job against the correctness gate.
func (b *bench) check(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// Seed labels of the input streams.
const (
	seedGraph = iota + 1
	seedWarm
	seedTimed
	seedScaling
	seedClient
	seedSweepA
	seedSweepB
	seedOpinion
	seedTraced
)

// slices is how many equal parts of the measured window the rate and
// latency metrics are computed on; each metric reports the median over
// the parts, so a burst of interference from outside the benchmark moves
// at most a minority of them.
const slices = 10

// window measures wall time, process CPU time, and Go heap activity
// between start and stop, and samples the CPU time at each slice boundary.
type window struct {
	t0    time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	stopc chan struct{}
	marks chan []mark
}

// mark is the process CPU time at one instant, and the peak RSS since
// the previous mark.
type mark struct {
	at  time.Time
	cpu time.Duration
	rss float64 // MiB
}

// startWindow starts a window whose slices divide d. It first collects
// garbage and restarts the peak-RSS counter, so set-up's transient
// garbage does not count towards max_rss_mb; what set-up left resident
// does.
func startWindow(d time.Duration) *window {
	debug.FreeOSMemory()
	resetPeakRSS()
	w := &window{cpu: processCPU(), stopc: make(chan struct{}), marks: make(chan []mark, 1)}
	runtime.ReadMemStats(&w.mem)
	w.t0 = time.Now()
	go func() {
		marks := []mark{{at: w.t0, cpu: w.cpu}}
		t := time.NewTicker(d / slices)
		defer t.Stop()
		for len(marks) < slices {
			select {
			case now := <-t.C:
				marks = append(marks, mark{now, processCPU(), peakRSSMiB()})
				resetPeakRSS()
			case <-w.stopc:
				w.marks <- marks
				return
			}
		}
		<-w.stopc
		w.marks <- marks
	}()
	return w
}

// windowStats is what one window measured.
type windowStats struct {
	wall, cpu  time.Duration
	marks      []mark // slice starts, then the window's end
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (w *window) stop() windowStats {
	close(w.stopc)
	marks := <-w.marks
	end := mark{time.Now(), processCPU(), peakRSSMiB()}
	s := windowStats{wall: end.at.Sub(w.t0), cpu: end.cpu - w.cpu, marks: append(marks, end)}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.allocBytes = mem.TotalAlloc - w.mem.TotalAlloc
	s.gcCycles = mem.NumGC - w.mem.NumGC
	s.gcPause = time.Duration(mem.PauseTotalNs - w.mem.PauseTotalNs)
	return s
}

// done is one completed job of a measured window.
type done struct {
	at     time.Time     // when its terminal state was seen
	lat    time.Duration // from submission to at
	trials int
}

// setE2E records the end-to-end metrics of a closed-loop window: each is
// computed per slice (a job belongs to the slice it completed in) and the
// median over the slices is reported.
func (b *bench) setE2E(ws windowStats, jobs []done) {
	var tps, jps, cpu, p50, p99, rss []float64
	for i := 0; i+1 < len(ws.marks); i++ {
		lo, hi := ws.marks[i], ws.marks[i+1]
		var lat []time.Duration
		trials := 0
		for _, j := range jobs {
			if !j.at.Before(lo.at) && (j.at.Before(hi.at) || i+2 == len(ws.marks)) {
				lat = append(lat, j.lat)
				trials += j.trials
			}
		}
		secs := hi.at.Sub(lo.at).Seconds()
		tps = append(tps, float64(trials)/secs)
		jps = append(jps, float64(len(lat))/secs)
		cpu = append(cpu, float64((hi.cpu-lo.cpu).Nanoseconds())/1e6/float64(max(len(lat), 1)))
		p50 = append(p50, ms(percentile(lat, 0.50)))
		p99 = append(p99, ms(percentile(lat, 0.99)))
		rss = append(rss, hi.rss)
	}
	b.metrics["trials_per_s"] = medianf(tps)
	b.metrics["jobs_per_s"] = medianf(jps)
	b.metrics["cpu_ms_per_op"] = medianf(cpu)
	b.metrics["job_p50_ms"] = medianf(p50)
	b.metrics["job_p99_ms"] = medianf(p99)
	b.metrics["max_rss_mb"] = medianf(rss)
	n := fmt.Sprintf("median of %d slices; %d jobs", len(ws.marks)-1, len(jobs))
	for _, k := range []string{"trials_per_s", "jobs_per_s", "job_p50_ms", "job_p99_ms", "cpu_ms_per_op", "max_rss_mb"} {
		b.notes[k] = n
	}
}

// medianf returns the median of xs (the mean of the middle two when even).
func medianf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setRuntime records the benchmark process's Go runtime activity over a
// window of ops operations.
func (b *bench) setRuntime(ws windowStats, ops int) {
	b.metrics["runtime.alloc_bytes_per_op"] = float64(ws.allocBytes) / float64(max(ops, 1))
	b.metrics["runtime.gc_cycles"] = float64(ws.gcCycles)
	b.metrics["runtime.gc_pause_s"] = ws.gcPause.Seconds()
}

// setSetup records the median of the measured set-up times.
func (b *bench) setSetup(times []time.Duration) {
	b.metrics["setup_s"] = median(times).Seconds()
	b.notes["setup_s"] = "median of " + strconv.Itoa(len(times)) + " set-ups"
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []time.Duration) time.Duration { return percentile(xs, 0.5) }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM). Best
// effort: where /proc/self/clear_refs is not writable, each slice's peak
// is the process peak so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB reads VmHWM, falling back to getrusage's max RSS.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// env is the environment stamp printed with every result.
type env struct {
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
	Version    string   `json:"version"`
	Commit     string   `json:"commit"`
	Seed       uint64   `json:"seed"`
}

func stamp(seed uint64) env {
	bi := buildinfo.Get()
	e := env{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Version:    bi.Version,
		Commit:     bi.Commit,
		Seed:       seed,
	}
	if bi.Modified {
		e.Commit += "+dirty"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// One entry per cache of CPU 0, e.g. "L1d 48K", "L3 300M".
	for i := 0; ; i++ {
		base := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, err := os.ReadFile(base + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(base + "type")
		size, _ := os.ReadFile(base + "size")
		name := "L" + strings.TrimSpace(string(level))
		switch strings.TrimSpace(string(typ)) {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		e.Caches = append(e.Caches, name+" "+strings.TrimSpace(string(size)))
	}
	return e
}
