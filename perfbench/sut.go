package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat (100 on
// every mainstream Linux build).
const clkTck = 100

// proc is one SUT process.
type proc struct {
	name string
	url  string // HTTP base URL
	// ready is the readiness path: /readyz on a sink, routerReady on the
	// router.
	ready string
	cmd   *exec.Cmd
	done  chan struct{}
	log   *os.File
}

// cleanups holds every live process group so that any exit path — a failed
// check, the run deadline, SIGINT/SIGTERM — can kill them.
var (
	cleanupMu sync.Mutex
	live      = map[*proc]struct{}{}
	// aborting refuses new processes once an exit path has started killing.
	aborting atomic.Bool
)

func track(p *proc, on bool) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	if on {
		live[p] = struct{}{}
	} else {
		delete(live, p)
	}
}

// abortAll stops new launches, then kills every tracked process.
func abortAll() {
	aborting.Store(true)
	killAll()
}

// killAll SIGKILLs every tracked process and waits for each to exit.
func killAll() {
	cleanupMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	cleanupMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startProc launches bin with args, logging to dir/<name>.log. The process
// gets its own process group and dies with the harness (PDEATHSIG).
func startProc(bin, dir, name, url, ready string, args ...string) (*proc, error) {
	if aborting.Load() {
		return nil, fmt.Errorf("start %s: run aborted", name)
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: url, ready: ready, cmd: cmd, done: make(chan struct{}), log: logf}
	track(p, true)
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down gracefully, escalating to SIGKILL
// after grace; it returns once the process has exited.
func (p *proc) stop(grace time.Duration) {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
		}
	}
	p.kill()
}

func (p *proc) kill() {
	if !p.exited() {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
	}
	p.log.Close()
	track(p, false)
}

// logTail returns the end of the process log, for error reports.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuTicks returns utime+stime of the process (all threads) in clock ticks.
func (p *proc) cpuTicks() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for %s", p.name)
	}
	return ut + st, nil
}

// peakRSS returns VmHWM in bytes.
func (p *proc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// routerReady is the router's readiness probe. The router has no /readyz;
// its /healthz answers 200 as soon as it listens, and its body reports "ok"
// once the router's own shard probes have found every shard ready.
const routerReady = "/healthz"

// probe asks p's readiness path once: ready is a 200 whose body contains
// want. It fails if the process has exited.
func probe(c *http.Client, p *proc, want string) (bool, error) {
	if p.exited() {
		return false, fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail())
	}
	resp, err := c.Get(p.url + p.ready)
	if err != nil {
		return false, nil
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(want)), nil
}

// waitReady probes p until it is ready.
func waitReady(p *proc, want string, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		ok, err := probe(c, p, want)
		if ok || err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s", p.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
