package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/fvl/client"
)

// fvld is one running fvld process.
type fvld struct {
	cmd  *exec.Cmd
	base string        // http://host:port, from the listening line
	done chan struct{} // closed once the process has been waited for

	mu   sync.Mutex
	logs bytes.Buffer // stderr after the listening line, for failure reports
}

// startFvld starts fvld on an ephemeral loopback port and waits until it
// listens. dataDir may be empty (in-memory server).
func (b *bench) startFvld(dataDir string) (*fvld, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	cmd := exec.Command(b.fvldBin, args...)
	// The kernel kills fvld if the benchmark dies first, so no process
	// outlives a run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fvld: %w", err)
	}
	p := &fvld{cmd: cmd, done: make(chan struct{})}
	b.procs = append(b.procs, p)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				rest := strings.Fields(line[i+len("listening on "):])
				if len(rest) > 0 {
					addr <- rest[0]
					sent = true
					continue
				}
			}
			p.mu.Lock()
			p.logs.WriteString(line + "\n")
			p.mu.Unlock()
		}
		// Drain whatever remains so fvld never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
		if !sent {
			close(addr)
		}
	}()
	go func() {
		_ = cmd.Wait() // the exit status of a SIGKILLed server carries nothing
		close(p.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-p.done
			return nil, fmt.Errorf("fvld exited before listening: %s", p.logText())
		}
		b.m.startMs = append(b.m.startMs, ms(time.Since(t0)))
		p.base = a
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("fvld did not listen within 30s")
	}
	return p, nil
}

func (p *fvld) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logs.String()
}

// peakRSSKB reads the process's VmHWM, its peak resident set, in kB.
func (p *fvld) peakRSSKB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// kill SIGKILLs the process and waits until it has exited. Killing an
// already-exited process is harmless.
func (p *fvld) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
}

// killRecording records the process's peak RSS, then SIGKILLs it. A crash
// is what durable recovery is for; SIGTERM would drain and checkpoint, and
// nothing would replay.
func (b *bench) killRecording(p *fvld) error {
	kb, err := p.peakRSSKB()
	p.kill()
	if err != nil {
		return err
	}
	if kb > b.m.rssKB {
		b.m.rssKB = kb
	}
	return nil
}

// stopAll kills every process the run started and waits for each.
func (b *bench) stopAll() {
	for _, p := range b.procs {
		p.kill()
	}
	b.procs = nil
}

// transport is the benchmark's single HTTP transport: at most two
// connections to fvld, each request's bytes counted from outside.
var transport = &countingTransport{base: &http.Transport{
	MaxConnsPerHost:     2,
	MaxIdleConnsPerHost: 2,
	DisableCompression:  true,
	IdleConnTimeout:     30 * time.Second,
}}

// clientFor returns a client for the process; idle connections to earlier
// (killed) processes are dropped first.
func clientFor(p *fvld) *client.Client {
	transport.base.CloseIdleConnections()
	return client.New(p.base, client.WithHTTPClient(&http.Client{Transport: transport}))
}
