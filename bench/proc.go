package main

import (
	"bufio"
	"bytes"
	"errors"
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
	"syscall"
	"time"
)

// env locates everything a run touches on disk. All of it is inside the
// checkout: binaries, the Go build cache and scratch data live under
// bench/out/, which .gitignore covers.
type env struct {
	root string // repository root (holds go.mod of module graphdiam)
	out  string // bench/out
	bin  string // bench/out/bin
	tmp  string // bench/out/tmp-<pid>, removed at exit
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module graphdiam. The benchmark builds the daemons from
// that source tree, so it refuses to run anywhere else.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module graphdiam\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module graphdiam above the working directory: the benchmark builds the program from the checkout it sits in")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	e := &env{root: root, out: out, bin: filepath.Join(out, "bin"),
		tmp: filepath.Join(out, fmt.Sprintf("tmp-%d", os.Getpid()))}
	for _, d := range []string{e.bin, e.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// goEnv keeps the Go toolchain's cache and temp files inside bench/out
// unless the caller (bench/run.sh) already placed them.
func (e *env) goEnv() []string {
	ev := os.Environ()
	set := func(k, v string) {
		if os.Getenv(k) == "" {
			ev = append(ev, k+"="+v)
		}
	}
	set("GOCACHE", filepath.Join(e.out, "gocache"))
	set("GOTMPDIR", filepath.Join(e.out, "gotmp"))
	set("GOPATH", filepath.Join(e.out, "gopath"))
	set("GOTOOLCHAIN", "local")
	set("GOPROXY", "off")
	return ev
}

// prebuiltEnv tells a child benchmark process that its parent already
// built the daemons in this checkout.
const prebuiltEnv = "GRAPHDIAM_BENCH_PREBUILT"

// buildDaemons compiles graphdiamd and graphdiamlb from the checkout into
// bench/out/bin, once per run.
func (e *env) buildDaemons() error {
	if os.Getenv(prebuiltEnv) != "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(e.out, "gotmp"), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", e.bin+string(os.PathSeparator),
		"./cmd/graphdiamd", "./cmd/graphdiamlb")
	cmd.Dir = e.root
	cmd.Env = e.goEnv()
	if outb, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build daemons: %v\n%s", err, outb)
	}
	return nil
}

// fsType reports the filesystem type holding path, from /proc/mounts
// (longest mount-point prefix wins); "unknown" where that is unreadable.
func fsType(path string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), fields[2]
		}
	}
	return typ
}

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// readVmHWM parses the peak resident set size, in kB, out of a
// /proc/<pid>/status document.
func readVmHWM(status io.Reader) (int64, error) {
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}

// peakRSSMB returns the peak resident set of pid in MB (0 for self).
func peakRSSMB(pid int) (float64, error) {
	p := "/proc/self/status"
	if pid != 0 {
		p = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(p)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := readVmHWM(f)
	return float64(kb) / 1024, err
}

// proc is one daemon the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once Wait returned
	// peakMB is the VmHWM read just before the process was stopped.
	peakMB float64
}

// procs tracks every live child so that any exit path — success, failed
// check, watchdog, signal — stops them all and waits for each.
var procs struct {
	sync.Mutex
	live map[*proc]struct{}
}

func (e *env) startProc(name, binary string, port int, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(e.tmp, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(filepath.Join(e.bin, binary), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() decides how it ended
		close(p.done)
	}()
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*proc]struct{}{}
	}
	procs.live[p] = struct{}{}
	procs.Unlock()
	return p, nil
}

// waitHTTP polls url until it answers 200 or the deadline passes.
func (p *proc) waitHTTP(c *http.Client, path string, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up; log: %s", p.name, p.log.Name())
		default:
		}
		resp, err := c.Get(p.url + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(stop) {
			return fmt.Errorf("%s not answering %s after %v; log: %s", p.name, path, deadline, p.log.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop records the process's peak RSS, asks it to exit, waits, and kills
// it if it has not gone within the grace period. Safe to call twice.
func (p *proc) stop() {
	procs.Lock()
	_, live := procs.live[p]
	delete(procs.live, p)
	procs.Unlock()
	if !live {
		return
	}
	if mb, err := peakRSSMB(p.cmd.Process.Pid); err == nil {
		p.peakMB = mb
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// stopAll stops every live child; called on every exit path.
func stopAll() {
	procs.Lock()
	var all []*proc
	for p := range procs.live {
		all = append(all, p)
	}
	procs.Unlock()
	for _, p := range all {
		p.stop()
	}
}
