package store

import (
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/workload"
)

// SampleRuns simulates a few seeds of every catalogued scenario, giving the
// codec tests and fuzz seeds runs that exercise every event kind, oracle
// report shape and adversary the repository can produce.  It is exported for
// the package's external tests.
func SampleRuns(tb testing.TB) []*model.Run {
	tb.Helper()
	var runs []*model.Run
	for _, sc := range registry.Scenarios() {
		for _, seed := range workload.Seeds(1, 2) {
			res, err := workload.Execute(sc.Spec, seed)
			if err != nil {
				tb.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			runs = append(runs, res.Run)
		}
	}
	return runs
}
