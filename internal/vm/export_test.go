package vm

// UseReferenceFetch makes p fetch and decode every instruction from its
// address space, ignoring predecoded tables, so a test can run the same
// program on both paths and compare them.
func UseReferenceFetch(p *Process) { p.referenceFetch = true }
