package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: the
// ranksqld binary, the Go build cache when run through run.sh, daemon
// logs and span files. It sits in the checkout and is git-ignored.
const buildDir = ".bench_build"

// repoRoot finds the checkout's root — the directory holding
// cmd/ranksqld — from the working directory upwards, so the benchmark
// runs both from the root (run.sh) and from benchmark/ (go run -C).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "ranksqld")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/ranksqld above the working directory: run from inside a checkout of the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles the checkout's own ranksqld into buildDir, so the
// timed runs measure this commit's server and not the load generator.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "ranksqld")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ranksqld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ranksqld: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one ranksqld child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *lockedBuffer
}

// lockedBuffer collects a daemon's output; os/exec writes to it from its
// own goroutine while an error path may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// procGroup owns every child process of a run: whatever path the run
// takes out, stopAll terminates and reaps them all.
type procGroup struct {
	bin string
	mu  sync.Mutex
	all []*daemon
}

// freeAddr asks the kernel for an unused loopback port by binding
// 127.0.0.1:0 and releasing it again.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches ranksqld with the given flags on a fresh loopback port
// and waits for /healthz. The port comes from 127.0.0.1:0; if another
// process grabs it between release and the daemon's bind, the daemon
// exits and start tries another port.
func (g *procGroup) start(ctx context.Context, flags ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d := &daemon{base: "http://" + addr, log: &lockedBuffer{}}
		d.cmd = exec.Command(g.bin, append([]string{"-addr", addr}, flags...)...)
		d.cmd.Stdout = d.log
		d.cmd.Stderr = d.log
		// A killed harness must not leave daemons behind either.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting ranksqld: %w", err)
		}
		g.mu.Lock()
		g.all = append(g.all, d)
		g.mu.Unlock()
		if lastErr = waitHealthy(ctx, d); lastErr == nil {
			return d, nil
		}
		g.stop(d)
	}
	return nil, lastErr
}

// waitHealthy polls /healthz until it answers 200, the daemon exits or
// 20 seconds pass.
func waitHealthy(ctx context.Context, d *daemon) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if d.cmd.ProcessState != nil || !processAlive(d.cmd.Process.Pid) {
			return fmt.Errorf("ranksqld exited before becoming healthy:\n%s", d.log.String())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ranksqld at %s not healthy within 20s:\n%s", d.base, d.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// processAlive reports whether pid still runs (a zombie counts as gone).
func processAlive(pid int) bool {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(raw, ')')
	return i >= 0 && i+2 < len(raw) && raw[i+2] != 'Z'
}

// stop sends SIGTERM, waits for the daemon's graceful shutdown and kills
// it if that takes more than five seconds.
func (g *procGroup) stop(d *daemon) {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a terminated daemon carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// stopAll terminates and reaps every daemon the group started, last
// started first: a router goes before its shards, so the shards'
// graceful shutdown does not sit out the five seconds net/http grants a
// connection the router opened but never used.
func (g *procGroup) stopAll() {
	g.mu.Lock()
	all := g.all
	g.all = nil
	g.mu.Unlock()
	http.DefaultClient.CloseIdleConnections()
	for i := len(all) - 1; i >= 0; i-- {
		g.stop(all[i])
	}
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 on every
// supported architecture.
const clockTick = 100

// cpuMillis returns the user+system CPU time pid has consumed, from
// fields 14 and 15 of /proc/<pid>/stat.
func cpuMillis(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable times in /proc/%d/stat", pid)
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// peakRSSMB returns pid's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// pids returns the process ids of the given daemons.
func pids(ds []*daemon) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.cmd.Process.Pid
	}
	return out
}

// sumOver adds f over pids.
func sumOver(pids []int, f func(int) (float64, error)) (float64, error) {
	var total float64
	for _, p := range pids {
		v, err := f(p)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// machineInfo identifies where a report was measured, so two reports are
// only compared when their machines match.
type machineInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
}

func readMachine(root string) machineInfo {
	m := machineInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		LoadStart:  loadAvg1(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					m.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	// A benchmark checkout is not always a git repository; the SHA is
	// metadata, never a reason to fail.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	// Do not let git look for a repository above the checkout.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	return m
}

// loadAvg1 returns the 1-minute load average, or -1 when unreadable.
func loadAvg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
