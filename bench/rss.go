package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// rssInterval is how often rssSampler reads the resident set.
const rssInterval = 10 * time.Millisecond

// rssSampler records the peak resident set of a process over the measured
// window by reading VmRSS from /proc. Unlike the kernel's lifetime
// high-water mark it leaves out set-up and priming, whose garbage would
// otherwise set the peak by chance of GC timing.
type rssSampler struct {
	stop, done chan struct{}
	peakKB     float64
	n          int
	err        error
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			kb, err := statusKB(path, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.peakKB, s.n = max(s.peakKB, kb), s.n+1
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak in MB and the sample count.
func (s *rssSampler) peakMB() (float64, int, error) {
	close(s.stop)
	<-s.done
	return s.peakKB / 1024, s.n, s.err
}

// statusKB reads one "Field:  N kB" line of a /proc status file.
func statusKB(path, field string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected %s line %q", field, line)
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}
