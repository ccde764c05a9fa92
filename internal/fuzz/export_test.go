package fuzz

// UseFreshProbes makes f boot a harness for every probe instead of forking
// its one booted harness, so a test can run the same battery on both paths and
// compare them.
func UseFreshProbes(f *Fuzzer) { f.freshProbes = true }
