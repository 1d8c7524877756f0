package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stopping is set when the benchmark is told to stop by a signal.
var stopping atomic.Bool

// interrupted reports a received stop signal as an error, so loops can
// unwind through their normal clean-up.
func interrupted() error {
	if stopping.Load() {
		return errors.New("interrupted")
	}
	return nil
}

// live holds every daemon started and not yet stopped, so a stop signal
// can end them even while a workload is blocked.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

func interrupt() {
	stopping.Store(true)
	live.Lock()
	defer live.Unlock()
	for d := range live.set {
		_ = d.cmd.Process.Kill() // exiting anyway; stop() reaps it
	}
}

// daemon is one started server process.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// startDaemon runs bin with args plus -addr/-addr-file, waits until it
// answers /v1/healthz with 200, and returns it. Its log goes to logPath.
func startDaemon(name, bin, dir, logPath string, args ...string) (*daemon, error) {
	addrFile := filepath.Join(dir, name+".addr")
	_ = os.Remove(addrFile) // a stale file would be read as this boot's address
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]bool)
	}
	live.set[d] = true
	live.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := interrupted(); err != nil {
			d.stop()
			return nil, err
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("%s exited during start-up (%v); log in %s", name, d.err, logPath)
		default:
		}
		if d.url == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.url = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.url != "" {
			if resp, err := http.Get(d.url + "/v1/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s not healthy after 60s; log in %s", name, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the daemon, gracefully first, and waits until it has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }
