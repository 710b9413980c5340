// Package maprange exercises the maprange analyzer: map iteration order
// is randomized per run, so ordering-sensitive loop bodies leak
// nondeterminism.
package maprange

import (
	"hash/fnv"
	"sort"
)

// Engine is a local stand-in for the simulation engine; the analyzer
// matches schedule methods by receiver and method name.
type Engine struct{}

func (e *Engine) Schedule(d int, fn func())          {}
func (e *Engine) At(d int, fn func())                {}
func (e *Engine) AtCancel(d int, fn func()) func()   { return nil }
func (e *Engine) Other(keys []string, m map[int]int) {}

func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `ordering-sensitive body \(append`
		keys = append(keys, k)
	}
	return keys
}

func scheduleUnsorted(e *Engine, m map[int]int) {
	for d := range m { // want `ordering-sensitive body \(event scheduling`
		e.Schedule(d, func() {})
	}
}

func hashUnsorted(m map[string]int) uint64 {
	h := fnv.New64a()
	for k := range m { // want `ordering-sensitive body \(hash write`
		h.Write([]byte(k))
	}
	return h.Sum64()
}

func acknowledged(m map[string]bool) []string {
	var hit []string
	//pushpull:lint-allow maprange result is re-sorted by the caller before any digest
	for k := range m {
		if m[k] {
			hit = append(hit, k)
		}
	}
	return hit
}

// clean: the canonical collect-keys-then-sort idiom.
func collectSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// clean: an order-insensitive reduction.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
