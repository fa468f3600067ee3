package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"riotshare/internal/blockd"
	"riotshare/internal/server"
)

// hostReady is the one line a host child prints once it is serving.
type hostReady struct {
	Addr string `json:"addr"`
}

// runHost is the child process: it hosts one server.Server behind
// server.Handler() on a loopback listener (plus the workload's in-process
// block servers), announces its address on stdout, and serves until its
// stdin closes — so a parent that dies takes the child with it. It knows
// the workload only by name, for the server configuration; every request
// arrives as JSON over HTTP.
func runHost(w *workload, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	addrs, stopBlockd, err := startBlockd(dir, w.blockd)
	if err != nil {
		return err
	}
	defer stopBlockd()

	srv, err := server.New(w.config(filepath.Join(dir, "store"), seed, addrs))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	if err := json.NewEncoder(os.Stdout).Encode(hostReady{Addr: ln.Addr().String()}); err != nil {
		return err
	}
	// Block until the parent closes our stdin (or dies).
	_, _ = io.Copy(io.Discard, os.Stdin)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// startBlockd starts n in-process block servers on loopback, each over its
// own root under dir, and returns their addresses and a function that stops
// them all.
func startBlockd(dir string, n int) (addrs []string, stop func(), err error) {
	var servers []*blockd.Server
	stop = func() {
		for _, bs := range servers {
			bs.Close()
		}
	}
	for i := 0; i < n; i++ {
		bs, err := blockd.New(filepath.Join(dir, fmt.Sprintf("blockd-%d", i)), blockd.Options{})
		if err != nil {
			stop()
			return nil, nil, err
		}
		servers = append(servers, bs)
		if err := bs.ListenAndServe("127.0.0.1:0"); err != nil {
			stop()
			return nil, nil, err
		}
		addrs = append(addrs, bs.Addr())
	}
	return addrs, stop, nil
}

// host is the parent's handle on one child.
type host struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

// startHost launches a fresh child of this binary hosting the workload and
// waits for it to announce its address.
func startHost(w *workload, seed int64, dir string) (*host, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-host", "-workload", w.name, "-seed", fmt.Sprint(seed), "-dir", dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &host{cmd: cmd, stdin: stdin}
	var ready hostReady
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &ready)
	}
	if err != nil {
		_, _ = h.stop()
		return nil, fmt.Errorf("host %s did not come up: %w", w.name, err)
	}
	h.addr = ready.Addr
	return h, nil
}

// stop closes the child's stdin, waits for it to exit (killing it if it
// does not within the grace period), and returns its peak resident set
// size in KiB as getrusage reports it.
func (h *host) stop() (maxRSSKiB int64, err error) {
	_ = h.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = h.cmd.Process.Kill()
		<-done
		err = errors.New("host did not exit within 30s of stdin closing; killed")
	}
	if ru, ok := h.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSSKiB = ru.Maxrss
	}
	return maxRSSKiB, err
}
