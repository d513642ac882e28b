package main

import (
	"os"
	"strings"
	"testing"
)

func TestReadVmHWM(t *testing.T) {
	doc := "Name:\tgraphdiamd\nVmPeak:\t 1234567 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n"
	kb, err := readVmHWM(strings.NewReader(doc))
	if err != nil || kb != 45678 {
		t.Errorf("readVmHWM = %d, %v; want 45678", kb, err)
	}
	if _, err := readVmHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Error("a status document without VmHWM was accepted")
	}
	if _, err := readVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Error("a VmHWM line in another unit was accepted")
	}
}

func TestPeakRSSOfSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc on this platform")
	}
	mb, err := peakRSSMB(0)
	if err != nil || mb <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", mb, err)
	}
	if typ := fsType(os.TempDir()); typ == "" {
		t.Error("fsType returned an empty string")
	}
}

func TestFreePortIsUsable(t *testing.T) {
	p, err := freePort()
	if err != nil || p <= 0 {
		t.Fatalf("freePort = %d, %v", p, err)
	}
}
