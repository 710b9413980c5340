package fault_test

import (
	"encoding/json"
	"testing"

	"pushpull/internal/fault"
	"pushpull/internal/scenario"
)

// FuzzParsePlan: no plan input panics or hangs; every plan ParsePlan
// accepts either fails Validate with an error or compiles.
func FuzzParsePlan(f *testing.F) {
	for _, s := range scenario.Builtin() {
		if s.Faults != nil {
			data, err := json.Marshal(s.Faults)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, sw := range scenario.BuiltinSweeps() {
		for _, ax := range sw.Grid.Axes {
			if ax.Field == "faults" {
				for _, v := range ax.Values {
					f.Add([]byte(v))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := fault.ParsePlan(data)
		if err != nil {
			return
		}
		verr := p.Validate(0)
		if _, err := fault.Compile(p, 1); (err == nil) != (verr == nil) {
			t.Fatalf("Compile error %v disagrees with Validate error %v", err, verr)
		}
	})
}
