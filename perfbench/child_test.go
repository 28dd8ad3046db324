package main

import "testing"

var keep [][]byte

func TestSampleHeapSeesAllocation(t *testing.T) {
	stop := sampleHeap()
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 1<<20))
	}
	peak := stop()
	keep = nil
	if peak < 64 {
		t.Fatalf("heap high-water %.1f MiB with 64 MiB held", peak)
	}
}
