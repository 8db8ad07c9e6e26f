// Package hotblock keeps the one name left from the deleted hot-block
// timing-memoization engine: the telemetry record that bench/'s traced
// run still reads. ROADMAP item 4 updates bench/ to drop that last
// user, and item 5 then deletes this package.
package hotblock

// Counters was the replay telemetry of one run or, through Merge, of
// many.
//
// Deprecated: nothing writes it; every field reads zero.
type Counters struct {
	Templates            uint64
	Replays              uint64
	ReplayedCycles       uint64
	InvalidationsPrecond uint64
	AbortsSpanLimit      uint64
	AbortsUnsteady       uint64
}

// Merge accumulates o into c.
func (c *Counters) Merge(o Counters) {
	c.Templates += o.Templates
	c.Replays += o.Replays
	c.ReplayedCycles += o.ReplayedCycles
	c.InvalidationsPrecond += o.InvalidationsPrecond
	c.AbortsSpanLimit += o.AbortsSpanLimit
	c.AbortsUnsteady += o.AbortsUnsteady
}
