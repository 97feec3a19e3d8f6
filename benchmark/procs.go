package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot locates the repository checkout the benchmark measures: the
// directory holding BENCHMARK.json and module repro's go.mod. `go run
// -C benchmark .` starts the program inside benchmark/, a built binary
// may be started from the root.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil || !bytes.HasPrefix(mod, []byte("module repro\n")) {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err != nil {
			continue
		}
		return filepath.Abs(dir)
	}
	return "", errors.New("benchmark: run from the repository root or from benchmark/ (no module repro go.mod with BENCHMARK.json here or one level up)")
}

// statusKB reads one "Vm…: n kB" line of a process's status file.
func statusKB(pid int, key string) (int64, error) {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("benchmark: no %s in /proc/%d/status", key, pid)
}

// selfPeakRSSMB is this process's high-water resident set (VmHWM).
func selfPeakRSSMB() (float64, error) {
	kb, err := statusKB(os.Getpid(), "VmHWM")
	return float64(kb) / 1024, err
}

// child is a server process the benchmark started and must reap.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *bytes.Buffer
	done chan struct{}
	err  error
}

// startChild launches bin with args. The process is killed when ctx is
// cancelled; stop is the orderly path.
func startChild(ctx context.Context, name, bin string, args ...string) (*child, error) {
	c := &child{name: name, log: &bytes.Buffer{}, done: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, args...)
	c.cmd.Stdout = c.log
	c.cmd.Stderr = c.log
	// Its own process group: a terminal's Ctrl-C reaches the benchmark
	// only, which then stops its children itself, in order.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("benchmark: starting %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stop terminates the child (SIGTERM, then SIGKILL after a grace
// period), waits until it has ended and returns its peak resident set
// in MB as the kernel accounted it.
func (c *child) stop() float64 {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports kB
	}
	return 0
}

// freePort reserves an ephemeral loopback port by binding and releasing
// it. The servers under test cannot report a port they picked
// themselves, so the benchmark picks one for them; the caller retries
// with a fresh port if the server loses the race for it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls url every 5 ms until it answers 200, the child
// exits, or the deadline passes.
func waitHealthy(ctx context.Context, client *http.Client, url string, c *child) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.done:
			return fmt.Errorf("benchmark: %s exited before becoming healthy: %v\n%s", c.name, c.err, c.log.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benchmark: %s not healthy after 15s\n%s", c.name, c.log.String())
		}
	}
}

// buildServers compiles cmd/fdaserve and cmd/fdagate from the tree
// into <root>/.bench_build/bin. It runs before a workload's set-up
// clock starts: the state of the Go build cache must not reach any
// metric.
func buildServers(ctx context.Context, root string) (serve, gate string, err error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/fdaserve", "./cmd/fdagate")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("benchmark: building fdaserve and fdagate: %w\n%s", err, out)
	}
	return filepath.Join(bin, "fdaserve"), filepath.Join(bin, "fdagate"), nil
}

// scratchDir creates a private directory under benchmark/out (inside
// the checkout, git-ignored). The caller removes it.
func scratchDir(root, prefix string) (string, error) {
	base := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
