package discover

import "sync/atomic"

// UseFullReplays makes every classify of a run with c rebuild the browser
// and browse from the start, so a test can run the same classify on both
// paths and compare them.
func UseFullReplays(c *Config) { c.fullReplay = true }

// CountWatchBrowses makes runs with c count their watch browses in n.
func CountWatchBrowses(c *Config, n *atomic.Int64) { c.watches = n }
