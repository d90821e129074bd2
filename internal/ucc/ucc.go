// Package ucc implements unique column combination discovery with the DUCC
// random-walk algorithm (paper Sec. 2.2). The brute-force and agree-set
// references its tests compare against live in internal/oracle.
//
// All discovery runs on a shared pli.Provider, so PLIs computed during UCC
// discovery remain available to the FD phases of the holistic algorithms.
package ucc

import "holistic/internal/bitset"

// Result holds the outcome of a UCC discovery run.
type Result struct {
	// Minimal contains the minimal unique column combinations, sorted.
	Minimal []bitset.Set
	// MaximalNonUnique contains the maximal non-unique column combinations
	// certified during discovery.
	MaximalNonUnique []bitset.Set
	// Checks counts the uniqueness validations performed on actual PLIs,
	// i.e. the work not saved by pruning.
	Checks int
}
