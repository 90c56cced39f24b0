package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server settings, pinned so that both sides of a comparison run the same
// configuration on this two-core box. snapshotBytes is an eighth of the
// issue's 1 MiB: at about 160 WAL bytes per single-row append a ten-second
// window then sees well over the five compactions the issue asks for.
const (
	serverProcs   = 2
	serverWorkers = 2
	maxInFlight   = 4
	snapshotBytes = 128 << 10
	sessionName   = "bench"
)

func serverFlags(addr, dir string) []string {
	return []string{
		"-addr", addr,
		"-workers", strconv.Itoa(serverWorkers),
		"-max-inflight", strconv.Itoa(maxInFlight),
		"-trace-sample", "0",
		"-snapshot-bytes", strconv.Itoa(snapshotBytes),
		"-data-dir", dir,
	}
}

// child is one running incdbd.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string // its data directory
	done chan struct{}
}

// The live set: every child and directory this process owns, so that every
// exit path - return, failure, signal, wall-clock ceiling - can stop and
// remove them.
var live struct {
	mu       sync.Mutex
	children map[*child]bool
	dirs     map[string]bool
}

func cleanupAll() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for c := range live.children {
		c.cmd.Process.Kill()
		<-c.done
	}
	for d := range live.dirs {
		os.RemoveAll(d)
	}
	live.children, live.dirs = nil, nil
}

// newRunDir creates a directory that must not exist yet: a data directory
// left over from another run is an error, never silently reused.
func newRunDir(parent, name string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir := filepath.Join(parent, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return "", fmt.Errorf("run directory: %w (left over from another run?)", err)
	}
	live.mu.Lock()
	if live.dirs == nil {
		live.dirs = map[string]bool{}
	}
	live.dirs[dir] = true
	live.mu.Unlock()
	return dir, nil
}

func removeRunDir(dir string) {
	os.RemoveAll(dir)
	live.mu.Lock()
	delete(live.dirs, dir)
	live.mu.Unlock()
}

// checkNoLeakedServer fails if a process started from this checkout's incdbd
// binary is still running: a server leaked by an earlier run would share the
// two cores with this one and spoil every number.
func checkNoLeakedServer(bin string) error {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return err
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			return fmt.Errorf("incdbd from an earlier run is still alive (pid %d, %s): stop it first", pid, bin)
		}
	}
	return nil
}

// startServer launches incdbd on a free loopback port over dir and waits
// until it answers its liveness probe. The returned duration is launch to
// ready.
func startServer(bin, dir string) (*child, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		// The port comes from binding :0 here; the window until the child
		// rebinds it is covered by retrying on another port.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		addr := l.Addr().String()
		l.Close()

		logf, err := os.OpenFile(filepath.Join(dir, "incdbd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(bin, serverFlags(addr, filepath.Join(dir, "data"))...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
		cmd.Stdout, cmd.Stderr = logf, logf
		// If the benchmark itself is killed, the kernel takes the server
		// with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		err = cmd.Start()
		logf.Close()
		if err != nil {
			return nil, 0, err
		}
		c := &child{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan struct{})}
		go func() {
			cmd.Wait()
			close(c.done)
		}()
		live.mu.Lock()
		if live.children == nil {
			live.children = map[*child]bool{}
		}
		live.children[c] = true
		live.mu.Unlock()

		if err := c.waitReady(10 * time.Second); err != nil {
			lastErr = err
			c.kill()
			continue
		}
		return c, time.Since(start), nil
	}
	return nil, 0, lastErr
}

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("incdbd exited during start-up:\n%s", c.logTail())
		default:
		}
		resp, err := http.Get(c.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("incdbd not ready after %v:\n%s", limit, c.logTail())
}

func (c *child) logTail() string {
	data, _ := os.ReadFile(filepath.Join(c.dir, "incdbd.log"))
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// kill stops the server the way a crash would (SIGKILL) and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
	live.mu.Lock()
	delete(live.children, c)
	live.mu.Unlock()
}

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/pid/stat: %q", data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/pid/stat: %q", data)
	}
	return (utime + stime) / 100, nil
}

// rssPeakMB is the server's peak resident set (VmHWM).
func (c *child) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/pid/status")
}
