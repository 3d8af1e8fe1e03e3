// Command perfbench is the repository's benchmark: it times parameter
// sweeps of the simulator end to end along the four routes users take —
// a local harness sweep at exact and at sampled fidelity, a sweep served
// by the campaign service's local pool, and one served by a worker fleet —
// checks every simulated result, and in a separate traced run splits the
// time by layer. See README.md for the workloads, the metrics and what
// each per-layer metric is expected to move.
//
// Usage, from the repository root (run.py builds this program first):
//
//	python3 perfbench/run.py --workload fig6-local --seed 42 --seconds 25 --trace 0
//	python3 perfbench/run.py --workload all --seed 42
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end ones untraced, per-layer ones with
// --trace 1). A human-readable table goes to standard error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"secddr/internal/harness"
	"secddr/internal/obs"
	"secddr/internal/sim"
)

// options are one run's settings.
type options struct {
	seed      uint64
	seconds   float64
	trace     bool
	tiny      bool // self-test scale
	workdir   string
	setupReps int // set-ups timed on their own per batch
}

// result is the line the run ends with.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   report `json:"metrics"`
}

func main() {
	o := options{setupReps: 40}
	name := flag.String("workload", "", "fig6-local, sampled-wide, pool-sweep, fleet-sweep, or all")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "grid seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured time: sweeps run until the next one would end past it (at least three)")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for stores and spans")
	record := flag.String("record", "", "run both grids at the default seed and write their result digests to this file")
	flag.Parse()
	o.trace = *traceFlag == 1
	runtime.GOMAXPROCS(simWorkers)

	if *record != "" {
		if err := recordReference(*record, o.workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *name == "all" {
		os.Exit(runAll(o))
	}
	w, ok := workloadByName(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of fig6-local, sampled-wide, pool-sweep, fleet-sweep, all) and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(w, o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload untraced and traced, each in a child process
// so that peak memory is per workload, relays their tables, and ends with
// a summary line.
func runAll(o options) int {
	total := result{Correct: true, Metrics: report{}}
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			fmt.Printf("== %s, trace %s, seed %d\n", w.name, tr, o.seed)
			var out bytes.Buffer
			cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", tr, "--workdir", o.workdir)
			cmd.Stdout, cmd.Stderr = &out, os.Stdout
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			var r result
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: result line: %v\n", w.name, err)
				return 1
			}
			total.Correct = total.Correct && r.Correct
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			for name, m := range r.Metrics {
				total.Metrics[w.name+"/"+name] = m
			}
		}
	}
	line, _ := json.Marshal(total) // a report of finite floats always marshals
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// sweep is one measured sweep: set up, dispatch, verify.
type sweep struct {
	e        *env
	wall     time.Duration // dispatch until the last result is verified
	cpu      time.Duration // process user+sys time over the same span
	allocMB  float64       // Go heap allocated over the same span
	peakMB   float64       // peak Go runtime memory held over the same span
	warmups  uint64        // timed warmup phases run
	failed   int
	problems []string
}

// runSweep sets up a fresh environment, runs the grid through it once, and
// verifies the outcome. The caller closes s.e.
func runSweep(w workload, o options, chk *checker, sc spanCtx) (*sweep, error) {
	e, err := setup(w, o, sc)
	if err != nil {
		return nil, err
	}
	s := &sweep{e: e}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, w0 := cpuTime(), sim.WarmupRuns()
	peak := startPeakSampler()
	start := time.Now()
	outs, err := e.dispatch()
	if err != nil {
		s.failed, s.problems = len(e.jobs), []string{err.Error()}
	} else {
		s.failed, _, s.problems = chk.check(outs)
	}
	s.wall, s.cpu, s.warmups = time.Since(start), cpuTime()-cpu0, sim.WarmupRuns()-w0
	s.peakMB = peak.stop()
	runtime.ReadMemStats(&m1)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return s, nil
}

// run performs one benchmark run of w and prints its table to log.
func run(w workload, o options, log io.Writer) (result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, err
	}
	jobs, err := gridJobs(gridSpec(w.grid, o.seed, o.tiny))
	if err != nil {
		return result{}, err
	}
	var ref map[string]string
	if !o.tiny {
		if ref, err = referenceFor(w.grid, o.seed); err != nil {
			return result{}, err
		}
	}
	chk := newChecker(jobs, w.grid == gridSampled, ref)
	r := &runState{w: w, o: o, chk: chk, rep: report{}}
	// A first batch warms the file system and the allocator; it is not
	// counted.
	if err := r.setupBatch(); err != nil {
		return result{}, err
	}
	r.setups, r.opens = nil, nil
	if err := r.setupBatch(); err != nil {
		return result{}, err
	}
	if o.trace {
		err = r.traced(jobs)
	} else {
		err = r.untraced()
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	fmt.Fprintf(log, "%s seed %d: %d points attempted, %d failed\n", w.name, o.seed, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(log, "  FAILED", p)
	}
	r.rep.print(log, "  ", defs)
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.rep}, nil
}

// runState accumulates one run's samples.
type runState struct {
	w   workload
	o   options
	chk *checker
	rep report

	setups, opens []float64 // the counted set-ups of the run, in s and ms
	attempted     int
	failed        int
	problems      []string
}

// setupBatch times o.setupReps set-ups on their own, each closed before
// the next. It collects garbage first, so that no collection the previous
// sweep left due runs during a set-up.
func (r *runState) setupBatch() error {
	runtime.GC()
	for i := 0; i < r.o.setupReps; i++ {
		e, err := setup(r.w, r.o, spanCtx{})
		if err != nil {
			return err
		}
		r.setups = append(r.setups, e.setup.Seconds())
		r.opens = append(r.opens, float64(e.open)/float64(time.Millisecond))
		e.close()
	}
	return nil
}

func (r *runState) count(s *sweep) {
	r.attempted += len(s.e.jobs)
	r.failed += s.failed
	r.problems = append(r.problems, s.problems...)
}

// sweepKey names a sweep uniquely within the run: a fresh key per sweep,
// so the service never attaches to an earlier one.
func (r *runState) sweepKey(i int) string {
	return fmt.Sprintf("perfbench-%s-%d-%d-%d", r.w.name, r.o.seed, os.Getpid(), i)
}

// minSweeps is the fewest sweeps an untraced run measures, so that every
// timing is a median of at least three.
const minSweeps = 3

// untraced runs sweeps back to back until the next one would end past the
// time budget, at least minSweeps of them, and reports the end-to-end
// metrics. A batch of set-ups follows every sweep, so that setup_s samples
// the machine over the whole run, as wall_s does.
func (r *runState) untraced() error {
	var walls, cpus, allocs, peaks []float64
	budget := time.Duration(r.o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 {
			if err := r.setupBatch(); err != nil {
				return err
			}
		}
		s, err := runSweep(r.w, r.o, r.chk, spanCtx{id: r.sweepKey(i)})
		if err != nil {
			return err
		}
		s.e.close()
		r.count(s)
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, s.allocMB)
		peaks = append(peaks, s.peakMB)
		if i+1 >= minSweeps && time.Since(start)+s.wall > budget {
			break
		}
	}
	r.rep.median("setup_s", "s", r.setups)
	r.rep.median("wall_s", "s", walls)
	r.rep.median("cpu_s", "s", cpus)
	r.rep.median("alloc_mb", "MB", allocs)
	r.rep.median("peak_rss_mb", "MB", peaks)
	return nil
}

// traced runs one untraced sweep as the overhead baseline, then one sweep
// with every span source and the CPU profiler on, the follow-up calls the
// per-layer metrics need, and the single-threaded replay; it reports the
// per-layer metrics and writes the spans out.
func (r *runState) traced(jobs []harness.Job) error {
	base, err := runSweep(r.w, r.o, r.chk, spanCtx{id: r.sweepKey(0)})
	if err != nil {
		return err
	}
	base.e.close()
	r.count(base)

	rec := newRecorder()
	key := r.sweepKey(1)
	root := rec.begin(key, "sweep", 0)
	profPath := filepath.Join(r.o.workdir, fmt.Sprintf("cpu-%s-seed%d.pprof", r.w.name, r.o.seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	runtime.GC() // the runtime's CPU-class figures are as of the last collection
	gc0, busy0 := gcCPU()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	s, err := runSweep(r.w, r.o, r.chk, spanCtx{rec: rec, id: key}.child(root))
	pprof.StopCPUProfile()
	gc1, busy1 := gcCPU()
	root.endCount(len(jobs))
	if err := errors.Join(err, prof.Close()); err != nil {
		if s != nil {
			s.e.close()
		}
		return err
	}
	r.count(s)
	selfFrac, err := foldProfile(profPath)
	if err != nil {
		s.e.close()
		return err
	}

	// The traced sweep's own spans, before the follow-ups add theirs.
	rep := r.rep
	rep.median("resultstore.record_us", "us", rec.durations("resultstore.Record", time.Microsecond))
	rep.median("resultstore.lookup_us", "us", rec.durations("resultstore.Lookup", time.Microsecond))
	rep.median("service.submit_ms", "ms", rec.durations("http PUT /v1/sweeps/{key}", time.Millisecond))
	rep.median("service.upload_ms", "ms", rec.durations("http POST /v1/jobs/{digest}/result", time.Millisecond))
	rep.set("service.heartbeats", "count", float64(len(rec.named("http POST /v1/workers/heartbeat"))))
	var leaseMS []float64
	leased := 0
	for _, sp := range rec.named(leaseRoute) {
		if sp.Count > 0 { // leases that handed out work; idle long-polls excluded
			leaseMS = append(leaseMS, float64(sp.dur())/float64(time.Millisecond))
			leased += sp.Count
		}
	}
	rep.median("service.lease_wait_ms", "ms", leaseMS)
	rep.none("service.jobs_per_lease", "ratio")
	if len(leaseMS) > 0 {
		rep.set("service.jobs_per_lease", "ratio", float64(leased)/float64(len(leaseMS)))
	}
	for _, l := range selfFracLayers {
		rep.set(l+".self_frac", "frac", selfFrac[l])
	}
	rep.set("runtime.gc_frac", "frac", ratio(gc1-gc0, busy1-busy0))
	rep.set("harness.warmups_per_point", "ratio", float64(s.warmups)/float64(len(jobs)))
	rep.set("harness.pool_util", "frac", base.cpu.Seconds()/(simWorkers*base.wall.Seconds()))
	rep.set("trace.overhead_frac", "frac", s.wall.Seconds()/base.wall.Seconds()-1)

	// Follow-up calls get their own root span, so the span file keeps
	// them apart from the sweep's.
	fu := rec.begin(key, "follow-ups", 0)
	err = r.followUps(s, spanCtx{rec: rec, id: key}.child(fu))
	fu.end()
	if err != nil {
		return err
	}

	replayRoot := rec.begin(key, "replay", 0)
	st, err := replay(jobs, spanCtx{rec: rec, id: key}.child(replayRoot))
	replayRoot.end()
	r.attempted += len(jobs)
	if err != nil {
		r.failed += len(jobs)
		r.problems = append(r.problems, "replay: "+err.Error())
	} else {
		for _, j := range jobs {
			if d, err := resultDigest(st.results[j.Key]); err != nil || !r.chk.agrees(j.Key, d) {
				r.failed++
				r.problems = append(r.problems, j.Key+": replayed result differs from the sweep's")
			}
		}
	}
	rep.median("sim.warmup_ms", "ms", st.warmupMS)
	for _, l := range configLabels() {
		rep.median(forkMetric(l), "ms", st.forkMS[l])
	}
	rep.median("sim.fork_ms.sampled", "ms", st.sampledMS)
	rep.median("sim.fork_first_over_memo", "ratio", st.firstOverMem)
	rep.median("sim.cold_run_ms", "ms", st.coldMS)
	rep.set("sim.host_ns_per_kcycle", "ns", ratio(st.forkNS, st.kcycles))
	rep.set("sim.host_ns_per_dram_cmd", "ns", ratio(st.forkNS, st.dramCmds))
	rep.median("resultstore.open_ms", "ms", r.opens)
	rep.set("failed_frac", "frac", ratio(float64(r.failed), float64(r.attempted)))
	return rec.write(filepath.Join(r.o.workdir, fmt.Sprintf("spans-%s-seed%d.json", r.w.name, r.o.seed)))
}

// gcCPU returns the runtime's estimates of the CPU time its garbage
// collector has used and of all busy CPU time (total less idle), in
// seconds. The runtime brings them up to date at the end of each
// collection.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// followUps measures, on the traced sweep's still-open environment, what
// needs a populated store: the service's /metrics, a cached re-submission,
// a cached local re-run, the store's disk use, and a daemon restart over
// it. Their spans go to sc. It closes s.e.
func (r *runState) followUps(s *sweep, sc spanCtx) error {
	e, rep := s.e, r.rep
	defer e.close()
	e.retarget(sc)
	rep.none("service.first_result_s", "s")
	rep.none("service.queue_wait_ms", "ms")
	rep.none("service.wal_records", "count")
	rep.none("service.cached_resubmit_ms", "ms")
	rep.none("service.recover_ms", "ms")
	if e.client != nil {
		rep.set("service.first_result_s", "s", e.firstSeen.Seconds())
		fams, err := scrape(e)
		if err != nil {
			return err
		}
		if f, ok := fams["secddr_wal_records_total"]; ok {
			v, _ := f.Value()
			rep.set("service.wal_records", "count", v)
		}
		rep.set("service.queue_wait_ms", "ms", histQuantile(fams["secddr_queue_wait_us"], 0.5)/1000)
		t := time.Now()
		outs, err := e.runRemote(r.sweepKey(2))
		rep.set("service.cached_resubmit_ms", "ms", float64(time.Since(t))/float64(time.Millisecond))
		r.verify(outs, err)
	}
	t := time.Now()
	outs, _, err := harness.RunContext(context.Background(), harness.Campaign{Jobs: e.jobs, Workers: simWorkers, Store: e.hs})
	rep.set("harness.cached_rerun_ms", "ms", float64(time.Since(t))/float64(time.Millisecond))
	r.verify(outs, err)
	size, err := dirBytes(e.dir)
	if err != nil {
		return err
	}
	rep.set("resultstore.disk_bytes_per_point", "bytes", float64(size)/float64(len(e.jobs)))
	if e.client == nil {
		return nil
	}
	// A daemon restart over the populated store: reopen it and start a
	// replica, which replays the WAL before it leads.
	e.shutdown()
	t = time.Now()
	re := &env{dir: e.dir, sc: e.sc}
	if err := re.openStore(); err != nil {
		return err
	}
	if err := re.startServer(r.w.path); err != nil {
		re.shutdown()
		return err
	}
	rep.set("service.recover_ms", "ms", float64(time.Since(t))/float64(time.Millisecond))
	re.shutdown()
	return nil
}

// verify checks the outcome of a follow-up re-run of the grid.
func (r *runState) verify(outs []harness.Outcome, err error) {
	n := len(r.chk.jobs)
	r.attempted += n
	if err != nil {
		r.failed += n
		r.problems = append(r.problems, err.Error())
		return
	}
	failed, _, problems := r.chk.check(outs)
	r.failed += failed
	r.problems = append(r.problems, problems...)
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(e *env) (map[string]*obs.MetricFamily, error) {
	resp, err := e.client.HTTPClient.Get(e.baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// histQuantile estimates a quantile of a Prometheus histogram family by
// linear interpolation inside the bucket that holds it (0 when empty).
func histQuantile(f *obs.MetricFamily, q float64) float64 {
	if f == nil {
		return 0
	}
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, s.Value})
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	prev := bucket{}
	for _, b := range bs {
		if b.cum >= target {
			if b.cum == prev.cum || b.le > 1e300 {
				return prev.le
			}
			return prev.le + (b.le-prev.le)*(target-prev.cum)/(b.cum-prev.cum)
		}
		prev = b
	}
	return prev.le
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakSampler tracks the peak of the memory the Go runtime holds from the
// operating system (mapped and not returned), which is the process's
// resident memory less its code and static data. The kernel's own peak
// (getrusage maxrss) cannot be reset between sweeps, so it would report
// one sample per process instead of one per sweep.
type peakSampler struct {
	quit chan struct{}
	done chan float64
}

var peakMetrics = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func heldBytes(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

// startPeakSampler samples every 5 ms until stop, which returns the peak
// in MB.
func startPeakSampler() *peakSampler {
	p := &peakSampler{quit: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := make([]metrics.Sample, len(peakMetrics))
		for i, name := range peakMetrics {
			s[i].Name = name
		}
		peak := heldBytes(s)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, heldBytes(s))
			case <-p.quit:
				p.done <- max(peak, heldBytes(s)) / (1 << 20)
				return
			}
		}
	}()
	return p
}

func (p *peakSampler) stop() float64 {
	close(p.quit)
	return <-p.done
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
