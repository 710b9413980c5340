package lab

import "testing"

// FuzzParseStudy: no study input panics; every study ParseStudy accepts
// round-trips through its canonical JSON to the same configuration.
func FuzzParseStudy(f *testing.F) {
	for _, st := range BuiltinStudies() {
		f.Add(st.JSON())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ParseStudy(data)
		if err != nil {
			return
		}
		again, err := ParseStudy(st.JSON())
		if err != nil {
			t.Fatalf("ParseStudy refused the canonical form of a study it accepted: %v", err)
		}
		if again.ConfigHash() != st.ConfigHash() {
			t.Fatal("canonical form parses to a different configuration")
		}
	})
}
