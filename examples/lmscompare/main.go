// Lmscompare: the §3.3/§5 argument in one run. Four recovery schemes on
// the same trace — SRM, CESRM, router-assisted CESRM, and LMS — first
// fault-free, then with the receiver LMS designates as replier crashing
// mid-transmission. LMS is the cheapest when nothing fails; when its
// replier dies, NAKs stall on stale router state until the fabric
// refresh, while CESRM degrades gracefully to SRM and re-caches.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/experiment"
	"cesrm/internal/trace"
)

func main() {
	name := flag.String("trace", "WRN951214", "Table 1 trace name")
	scale := flag.Float64("scale", 0.1, "trace volume scale in (0,1]")
	seed := flag.Int64("seed", 3, "random seed")
	refresh := flag.Duration("refresh", 8*time.Second, "LMS router replier-state staleness window")
	flag.Parse()

	entry, ok := trace.ByName(*name)
	if !ok {
		log.Fatalf("unknown trace %q", *name)
	}
	tr, err := entry.Load(*scale)
	if err != nil {
		log.Fatal(err)
	}

	compare := func(spec *chaos.Spec) {
		rows, err := experiment.RunComparison(tr, experiment.ComparisonConfig{Seed: *seed, LMSRefresh: *refresh, Chaos: spec})
		if err != nil {
			log.Fatal(err)
		}
		experiment.RenderComparisonRows(os.Stdout, rows)
	}

	fmt.Printf("=== %s at scale %v: %d packets, %d losses ===\n", entry.Name, *scale, tr.NumPackets(), tr.TotalLosses())

	fmt.Println("\nfault-free (latency in RTT units, cost in link crossings per loss):")
	compare(nil)

	// Crash the receiver LMS designates as replier (the lowest-ID
	// receiver) a third of the way into the transmission.
	victim := tr.Tree.Receivers()[0]
	crashAt := 3*time.Second + tr.Duration()/3
	fmt.Printf("\nwith designated replier (host %d) crashing at %v (LMS router state stale for %v):\n",
		victim, crashAt.Round(time.Second), *refresh)
	compare(&chaos.Spec{Name: "replier-crash", Faults: []chaos.Fault{{Kind: chaos.Crash, At: crashAt, Host: victim}}})
	fmt.Println("\n(LMS's p99 blows up by the staleness window; CESRM's fallback keeps its tail flat — §3.3)")
}
