package main

import "time"

// The host this benchmark runs on is shared, and its speed drifts by a
// fifth or more over minutes: the same pass of the same seed takes 2.8 s
// in one minute and 3.6 s in the next. Raw throughput then measures the
// neighbours, not the program. The loop therefore times a fixed
// reference kernel, interleaved with the simulations every refInterval,
// and converts host seconds to reference seconds: a reference second is
// the time the kernel takes for refStepsPerSecond steps. Throughput per
// reference second is what the program would reach on a host running
// the kernel at that rate.
//
// The kernel is part of the benchmark, not of the program, so no change
// to the program changes its work. It allocates nothing after set-up,
// so the program's heap and garbage collector do not slow it either.
// Its mix resembles the simulator's inner loop: a binary-heap event
// queue, map updates and dependent loads through a working set of about
// 1 MB.
//
// refStepsPerSecond is the kernel's median rate on the 2-vCPU Xeon host
// the baseline in README.md was measured on, so that there a reference
// second is close to a host second.
const (
	refOps            = 50_000
	refInterval       = 100 * time.Millisecond
	refStepsPerSecond = 6.5e6
)

// refSeconds converts host nanoseconds to reference seconds, given the
// host time of kernel calls made while those nanoseconds elapsed.
func refSeconds(hostNS float64, calls []int64) float64 {
	var sum float64
	for _, ns := range calls {
		sum += float64(ns)
	}
	nominalNS := 1e9 * refOps / refStepsPerSecond
	return hostNS / 1e9 * nominalNS / (sum / float64(len(calls)))
}

type refKernel struct {
	queue []uint64          // binary min-heap of event times
	table map[uint32]uint32 // fixed key set: updates never allocate
	ring  []uint32          // one random cycle over its indices
	x     uint64            // xorshift state
	pos   uint32
	sink  uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		queue: make([]uint64, 4096),
		table: make(map[uint32]uint32, 1<<14),
		ring:  make([]uint32, 1<<17),
		x:     88172645463325252,
	}
	for i := range k.queue {
		k.queue[i] = uint64(i) << 8 // ascending, so already a heap
	}
	for i := uint32(0); i < 1<<14; i++ {
		k.table[i] = i
	}
	// Sattolo's shuffle: a single cycle through every ring slot.
	for i := range k.ring {
		k.ring[i] = uint32(i)
	}
	for i := len(k.ring) - 1; i > 0; i-- {
		j := int(k.rand() % uint64(i))
		k.ring[i], k.ring[j] = k.ring[j], k.ring[i]
	}
	return k
}

func (k *refKernel) rand() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

// run executes refOps kernel steps and returns their host time. Each
// step reschedules the earliest event, updates one map entry and
// follows the ring one hop.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	q := k.queue
	for i := 0; i < refOps; i++ {
		r := k.rand()
		q[0] += 1 + r>>50
		for j := 0; ; {
			c := 2*j + 1
			if c >= len(q) {
				break
			}
			if c+1 < len(q) && q[c+1] < q[c] {
				c++
			}
			if q[j] <= q[c] {
				break
			}
			q[j], q[c] = q[c], q[j]
			j = c
		}
		key := uint32(r>>20) & (1<<14 - 1)
		k.table[key] += uint32(i)
		k.pos = k.ring[k.pos]
		k.sink += uint64(k.table[key^k.pos&(1<<14-1)])
	}
	return time.Since(start)
}
