package scenario

import "testing"

// FuzzParseSpec: no spec input panics; ParseSpec either returns an
// error or a spec that validates.
func FuzzParseSpec(f *testing.F) {
	for _, s := range Builtin() {
		f.Add(s.JSON())
	}
	f.Add([]byte(`{"topology":{"nodes":-3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec that does not validate: %v", err)
		}
	})
}

// FuzzParseSweep: no sweep input panics or exhausts memory, and any
// sweep ParseSweep accepts also expands.
func FuzzParseSweep(f *testing.F) {
	for _, sw := range BuiltinSweeps() {
		f.Add(sw.JSON())
	}
	f.Add(oversizedSweep())
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := ParseSweep(data)
		if err != nil {
			return
		}
		if _, err := sw.Expand(); err != nil {
			t.Fatalf("ParseSweep accepted a sweep that does not expand: %v", err)
		}
	})
}
