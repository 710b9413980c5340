package lab

import (
	"fmt"
	"sort"
)

// BuiltinStudies returns the named studies shipped with the lab: a
// small CI gate and one study per measurement family. Each is a
// complete Study — print it with Study.JSON, tweak, and feed it back
// through ParseStudy.
func BuiltinStudies() []Study {
	smoke := Study{
		Name:        "smoke",
		Description: "CI gate: paper ping-pongs, the smoke sweep grid and the BTP(2) curve (seconds; make lab-check compares it against the checked-in baseline)",
		Jobs: []Job{
			{Name: "internode-pingpong", Kind: KindScenario, Target: "paper-internode-pingpong",
				Seeds: []uint64{1, 2}, Messages: 200},
			{Name: "intranode-pingpong", Kind: KindScenario, Target: "paper-intranode-pingpong",
				Messages: 200},
			{Name: "grid", Kind: KindSweep, Target: "smoke-grid"},
			{Name: "btp2-curve", Kind: KindSweep, Target: "btp2"},
		},
	}

	collectives := Study{
		Name:        "collectives",
		Description: "the coll family: allreduce algorithm ablation, the 8-rank block shuffle, the halo exchange, and the coll-smoke grid",
		Jobs: []Job{
			{Name: "allreduce-rd", Kind: KindScenario, Target: "coll-allreduce", Repetitions: 2},
			{Name: "allreduce-ring", Kind: KindScenario, Target: "coll-allreduce-ring", Repetitions: 2},
			{Name: "alltoall", Kind: KindScenario, Target: "coll-alltoall", Repetitions: 2},
			{Name: "halo", Kind: KindScenario, Target: "coll-halo"},
			{Name: "grid", Kind: KindSweep, Target: "coll-smoke"},
		},
	}

	faults := Study{
		Name:        "faults",
		Description: "the fault family: blackout recovery, correlated loss bursts inside a collective, layered pipeline faults, and the fault-smoke grid",
		Jobs: []Job{
			{Name: "blackout", Kind: KindScenario, Target: "blackout-recovery", Seeds: []uint64{1, 7}},
			{Name: "flaky-allreduce", Kind: KindScenario, Target: "flaky-link-allreduce"},
			{Name: "pipeline-faults", Kind: KindScenario, Target: "port-blackout-pipeline"},
			{Name: "grid", Kind: KindSweep, Target: "fault-smoke"},
		},
	}

	longvector := Study{
		Name:        "longvector",
		Description: "the long-vector schedules: segmented ring bcast and rs-ag allreduce scenarios plus the longvector sweep comparing them with the plain ring and the tree",
		Jobs: []Job{
			{Name: "bcast-seg", Kind: KindScenario, Target: "coll-bcast-seg"},
			{Name: "allreduce-rsag", Kind: KindScenario, Target: "coll-allreduce-rsag"},
			{Name: "tables", Kind: KindSweep, Target: "longvector"},
		},
	}

	return []Study{smoke, collectives, faults, longvector}
}

// StudyNames lists the builtin study names, sorted.
func StudyNames() []string {
	studies := BuiltinStudies()
	names := make([]string, 0, len(studies))
	for _, st := range studies {
		names = append(names, st.Name)
	}
	sort.Strings(names)
	return names
}

// StudyByName returns the builtin study with the given name.
func StudyByName(name string) (Study, error) {
	for _, st := range BuiltinStudies() {
		if st.Name == name {
			return st, nil
		}
	}
	return Study{}, fmt.Errorf("lab: unknown study %q (have %v)", name, StudyNames())
}
