package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one btrace-serve child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots bin with args plus a fresh -addr, logging to
// logPath, and returns once /readyz answers 200.
func startServer(bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The server dies with the benchmark even on a path that skips
	// stop (a signal, a panic in another goroutine).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: lf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-s.done:
			s.done <- err
			s.log.Close()
			return nil, fmt.Errorf("btrace-serve exited during boot: %v (log %s)", err, logPath)
		default:
		}
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("btrace-serve not ready after 30s (log %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	return procStatusMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid), "VmHWM:")
}

// procStatusMB parses one kB line of a /proc status file, in MB.
func procStatusMB(path, key string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no %s in %s", key, path)
}

// stop interrupts the server (graceful drain) and waits for it to
// exit, killing it if the drain overruns.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// counters is one /metrics scrape: every series summed by name, labels
// dropped (per-shard and per-store series fold into fleet totals).
type counters map[string]float64

// scrape reads /metrics.
func scrape(c *http.Client, base string) (counters, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// diff returns end minus start for every series in end.
func (end counters) diff(start counters) counters {
	out := counters{}
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}

// getBody GETs u and returns the body, failing on any status but 200.
func getBody(ctx context.Context, c *http.Client, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", u, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// countQuery runs a BTQL `... | count()` aggregate and returns the
// event count.
func countQuery(ctx context.Context, c *http.Client, base, filter string) (uint64, error) {
	body, err := getBody(ctx, c, base+"/store/query?q="+url.QueryEscape(filter+" | count()"))
	if err != nil {
		return 0, err
	}
	var out struct {
		Missed uint64 `json:"missed"`
		Result struct {
			Events uint64 `json:"events"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("count body %q: %v", body, err)
	}
	if out.Missed != 0 {
		return 0, fmt.Errorf("count over %q missed %d events", filter, out.Missed)
	}
	return out.Result.Events, nil
}

// buildDir is the checkout's build directory, where runs keep their
// stores and spans.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// workDir makes a fresh scratch directory for one run under the build
// directory, removed by the returned cleanup.
func workDir(name string) (string, func(), error) {
	dir := filepath.Join(buildDir(), "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// newClient returns an HTTP client whose pool keeps exactly one
// keep-alive connection, so each logical stream of the generator rides
// its own connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}
