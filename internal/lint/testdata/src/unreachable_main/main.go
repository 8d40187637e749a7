// Command unreachable_main roots the unreachable fixture.
package main

import (
	"fmt"
	"time"

	"alloystack/internal/meter"
)

func main() {
	var c meter.Clock
	c.Add(time.Second)
	fmt.Println(meter.FormatBytes(1), meter.Compute, notInternal())

	o := meter.RunOptions{Journal: "dir"}
	o.Resume = "run-1"
	o.Retries++
	fmt.Println(o.WithDefaults(), &o.Deadline)
}

// notInternal is dead too, but only internal/... packages are reported.
func notInternal() int { return 0 }

func alsoDead() {}
