package trace

// UseReferenceCoverage makes r count every PC in its per-PC map, ignoring
// the predecoded tables' numbering, so a test can record the same run on
// both paths and compare them.
func UseReferenceCoverage(r *Recorder) { r.referenceCoverage = true }

// MapPCs returns how many PCs r counts in its per-PC map.
func MapPCs(r *Recorder) int { return len(r.pcs) }
