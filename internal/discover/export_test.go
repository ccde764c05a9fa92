package discover

// UseFullReplays makes every classify of a run with c rebuild the browser
// and browse from the start, so a test can run the same classify on both
// paths and compare them.
func UseFullReplays(c *Config) { c.fullReplay = true }
