package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"atmcac/internal/rtnet"
)

// bootTimeout bounds how long a daemon may take to print its listen
// line; recovery of a populated state file runs before it.
const bootTimeout = 60 * time.Second

// daemon is one running cacd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // CAC wire address, parsed from the "... on ADDR" line
	metrics string // host:port of the /metrics listener; empty when off
	stderr  bytes.Buffer
	drained chan struct{} // closed when the stdout reader has hit EOF
}

// startDaemon execs the cacd binary in its own process group and waits
// for the line announcing its ephemeral listen address. withMetrics adds
// a scrape endpoint on another ephemeral port.
func startDaemon(bin string, withMetrics bool, args ...string) (*daemon, error) {
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	if withMetrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	d := &daemon{cmd: exec.Command(bin, args...), drained: make(chan struct{})}
	// Own process group, so stop can kill the daemon and anything it
	// spawned; Pdeathsig covers a cacbench that dies without unwinding.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	type listen struct{ addr, metrics string }
	ready := make(chan listen, 1)
	go func() {
		defer close(d.drained)
		var got listen
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "cacd: serving metrics on http://"); ok {
				got.metrics = strings.TrimSuffix(rest, "/metrics")
				continue
			}
			if got.addr != "" {
				continue // keep draining so the daemon never blocks on stdout
			}
			if strings.HasPrefix(line, "cacd: managing ") || strings.HasPrefix(line, "cacd: coordinating ") {
				got.addr = line[strings.LastIndex(line, " on ")+len(" on "):]
				ready <- got
			}
		}
	}()
	select {
	case got := <-ready:
		d.addr, d.metrics = got.addr, got.metrics
		return d, nil
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("cacd %v exited before listening: %s", args, d.stderr.String())
	case <-time.After(bootTimeout):
		d.stop()
		return nil, fmt.Errorf("cacd %v did not listen within %s", args, bootTimeout)
	}
}

// stop kills the daemon's process group with SIGKILL (the crash the
// journal must survive) and reaps it.
func (d *daemon) stop() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.drained
	_ = d.cmd.Wait()
}

// cpuAndRSS reads the daemon's consumed CPU seconds (utime+stime) and
// peak resident set from /proc.
func (d *daemon) cpuAndRSS() (cpuSeconds, rssPeakMB float64, err error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, _ := strconv.ParseFloat(fields[11], 64)
	stime, _ := strconv.ParseFloat(fields[12], 64)
	cpuSeconds = (utime + stime) / 100
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			rssPeakMB = kb / 1024
		}
	}
	return cpuSeconds, rssPeakMB, nil
}

// fleet is the set of daemons one workload runs against.
type fleet struct {
	w       *workloadDef
	daemons []*daemon // shards first, then the front door
	shards  []*daemon // the daemons that hold admission state
	front   *daemon   // what the load connection dials
}

// bootFleet starts the workload's daemons on the state files under dir:
// a fresh directory gives an empty fleet, a used one recovers.
func bootFleet(w *workloadDef, bin, dir string, withMetrics bool) (*fleet, error) {
	f := &fleet{w: w}
	shape := []string{
		"-ring", strconv.Itoa(w.ringNodes),
		"-terminals", strconv.Itoa(terminalsPerNode),
		"-queue", strconv.Itoa(queueCells),
		"-low-queue", strconv.Itoa(lowQueueCells),
		"-durability", "journal-sync",
		// Compaction pinned out of reach: a fold in the middle of a
		// timed phase would be a stall the workload did not ask for.
		"-compact-records", "1000000000",
		"-compact-bytes", "1000000000000",
	}
	if !w.sharded {
		d, err := startDaemon(bin, withMetrics, append(shape, "-state", filepath.Join(dir, "state.json"))...)
		if err != nil {
			return nil, err
		}
		f.daemons, f.shards, f.front = []*daemon{d}, []*daemon{d}, d
		return f, nil
	}
	var spec []string
	for s := 0; s < 2; s++ {
		id := shardID(s)
		d, err := startDaemon(bin, withMetrics, append(shape,
			"-shard-id", id, "-state", filepath.Join(dir, id+".json"))...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		f.shards = append(f.shards, d)
		spec = append(spec, shardMapEntry(s, w.ringNodes, d.addr))
	}
	coord, err := startDaemon(bin, withMetrics,
		"-shard-map", strings.Join(spec, ";"), "-intent-log", filepath.Join(dir, "intent.log"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.daemons = append(f.daemons, coord)
	f.front = coord
	return f, nil
}

func shardID(s int) string { return fmt.Sprintf("s%d", s) }

// shardOf says which of the two shards owns ring node n: the ring is cut
// in halves.
func shardOf(n, ringNodes int) int { return n / (ringNodes / 2) }

// shardMapEntry renders shard s of a two-shard map in the -shard-map
// syntax: s0@ADDR=ring00,ring01,...
func shardMapEntry(s, ringNodes int, addr string) string {
	var owned []string
	for n := 0; n < ringNodes; n++ {
		if shardOf(n, ringNodes) == s {
			owned = append(owned, rtnet.SwitchName(n))
		}
	}
	return fmt.Sprintf("%s@%s=%s", shardID(s), addr, strings.Join(owned, ","))
}

// stop kills and reaps every daemon; the state files stay.
func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, d := range f.daemons {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
	f.daemons, f.shards, f.front = nil, nil, nil
}

// buildCacd compiles cmd/cacd from the checkout cacbench runs in.
func buildCacd(outDir string) (string, error) {
	if _, err := os.Stat("cmd/cacd"); err != nil {
		return "", errors.New("cmd/cacd not found: run cacbench from the repository root")
	}
	bin := filepath.Join(outDir, "cacd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cacd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cacd: %v\n%s", err, out)
	}
	return filepath.Abs(bin)
}
