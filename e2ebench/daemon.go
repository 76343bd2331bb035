package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
)

// daemon is one flayd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // HTTP listen address
	binAddr string // binary-protocol address ("" when disabled)
	http    *client.Client

	logMu sync.Mutex
	tail  []string // last log lines, for failure reports
	done  chan struct{}
	state *os.ProcessState
}

// spawnFlayd starts flayd on ephemeral ports and returns once it has
// logged its listen addresses. GOMAXPROCS is capped at procs.
func spawnFlayd(bin string, procs int, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting flayd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	wantBin := false
	for _, a := range args {
		wantBin = wantBin || a == "-bin-addr"
	}
	ready := make(chan struct{})
	go d.readLog(stderr, wantBin, ready)
	go func() {
		_ = cmd.Wait() // the exit status is read from state
		d.state = cmd.ProcessState
		close(d.done)
	}()
	select {
	case <-ready:
	case <-d.done:
		return nil, fmt.Errorf("flayd exited during start-up: %s", d.logTail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("flayd did not report its address within 30s: %s", d.logTail())
	}
	d.http = client.New("http://" + d.addr)
	return d, nil
}

// readLog scans the daemon's log for its listen addresses, then keeps
// draining it so the daemon never blocks on a full pipe.
func (d *daemon) readLog(r io.Reader, wantBin bool, ready chan<- struct{}) {
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			d.addr = strings.Fields(line[i+len("listening on http://"):])[0]
		}
		if i := strings.Index(line, "binary protocol on "); i >= 0 {
			d.binAddr = strings.TrimSpace(line[i+len("binary protocol on "):])
		}
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		ok := d.addr != "" && (!wantBin || d.binAddr != "")
		d.logMu.Unlock()
		if ok && !signalled {
			signalled = true
			close(ready)
		}
	}
	_, _ = io.Copy(io.Discard, r)
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.tail, " | ")
}

// waitHealthy polls /healthz until the daemon answers.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, err := d.http.Health()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("flayd at %s not healthy: %v", d.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTime is the daemon's user+system CPU so far, from /proc.
func (d *daemon) cpuTime() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// utime and stime; it is 100 on every Linux ABI Go supports.
const clockTick = 100

func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading cpu time: %w", err)
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat for pid %d", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// hostCPU returns the host's steal and total CPU time from /proc/stat,
// in clock ticks: time a virtual machine's CPUs were runnable but the
// hypervisor ran something else, against all time.
func hostCPU() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading host cpu time: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// stop sends SIGTERM (flayd drains and exits 0) and waits for the exit;
// a daemon that does not stop in time is killed.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			d.kill()
			return fmt.Errorf("flayd at %s ignored SIGTERM; killed", d.addr)
		}
	}
	if !d.state.Success() {
		return fmt.Errorf("flayd at %s exited with %v: %s", d.addr, d.state, d.logTail())
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// maxRSSMB is the daemon's peak resident set, once it has exited.
func (d *daemon) maxRSSMB() float64 {
	if d.state == nil {
		return 0
	}
	ru, ok := d.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pair is an active flayd replicating to a hot standby.
type pair struct {
	active, standby *daemon
}

// bootPair starts the standby, then the active pointed at it, and waits
// until both answer /healthz.
func bootPair(bin string, procs int) (*pair, error) {
	sb, err := spawnFlayd(bin, procs, "-standby")
	if err != nil {
		return nil, err
	}
	act, err := spawnFlayd(bin, procs, "-bin-addr", "127.0.0.1:0", "-replicate-to", "http://"+sb.addr)
	if err != nil {
		_ = sb.stop()
		return nil, err
	}
	p := &pair{active: act, standby: sb}
	for _, d := range []*daemon{sb, act} {
		if err := d.waitHealthy(30 * time.Second); err != nil {
			_ = p.stop()
			return nil, err
		}
	}
	return p, nil
}

// stop shuts the active down first, so it never ships to a dead standby.
func (p *pair) stop() error {
	if p == nil {
		return nil
	}
	err1 := p.active.stop()
	err2 := p.standby.stop()
	if err1 != nil {
		return err1
	}
	return err2
}
