package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
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

// buildServer compiles ./cmd/mvpar of the repository at root into work.
func buildServer(ctx context.Context, root, work string) (string, error) {
	bin := filepath.Join(work, "mvpar")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mvpar")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mvpar: %v\n%s", err, out)
	}
	return bin, nil
}

// checkpoint returns the `mvpar train -quick` checkpoint of bin, training
// it unless an earlier run already has. Training is deterministic, so the
// checkpoint is keyed by the binary's hash.
func checkpoint(ctx context.Context, bin, work string) (string, error) {
	data, err := os.ReadFile(bin)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	path := filepath.Join(work, fmt.Sprintf("ckpt-%x.bin", sum[:8]))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	tmp := path + ".tmp"
	if out, err := exec.CommandContext(ctx, bin, "train", "-quick", "-model", tmp).CombinedOutput(); err != nil {
		return "", fmt.Errorf("mvpar train: %v\n%s", err, out)
	}
	return path, os.Rename(tmp, path)
}

// server is one running `mvpar serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	log    bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startServer boots `mvpar serve` on a free loopback port with every
// flag but the model at its default, and returns once /readyz answers
// 200, with the time from exec to that answer.
func startServer(ctx context.Context, bin, ckpt string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-quick", "-model", ckpt, "-addr", addr)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	deadline := time.NewTimer(time.Minute)
	defer deadline.Stop()
	for {
		if res, err := client.Get(s.base + "/readyz"); err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-poll.C:
		case <-s.exited:
			return nil, 0, fmt.Errorf("server exited before ready (%v):\n%s", s.err, s.log.String())
		case <-deadline.C:
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after a minute:\n%s", s.log.String())
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		}
	}
}

// stop sends SIGTERM, which drains and exits the server, and kills it if
// it has not exited 20 s later. It returns once the process is gone.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, res.Status)
	}
	return buf.Bytes(), nil
}

// fingerprint is the default model's fingerprint from /healthz.
func (s *server) fingerprint(ctx context.Context) (string, error) {
	data, err := s.get(ctx, "/healthz")
	if err != nil {
		return "", err
	}
	var h struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return "", fmt.Errorf("/healthz: %w", err)
	}
	return h.Fingerprint, nil
}

// counters scrapes the unlabelled samples of the Prometheus exposition.
func (s *server) counters(ctx context.Context) (map[string]float64, error) {
	data, err := s.get(ctx, "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// cpuSeconds is the time the server's threads have spent on a CPU, the
// sum of the first field of /proc/<pid>/task/*/schedstat; time spent
// waiting for a CPU is not in it. The Go runtime keeps its threads, so
// none of the time is lost with an exited thread.
func (s *server) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%d/task", s.cmd.Process.Pid)
	}
	ns := 0.0
	for _, task := range tasks {
		data, err := os.ReadFile(task)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s is empty", task)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", task, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// rssMB is the server's resident set now (VmRSS).
func (s *server) rssMB() (float64, error) { return s.statusMB("VmRSS:") }

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) { return s.statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/<pid>/status, in MB.
func (s *server) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == field && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}
