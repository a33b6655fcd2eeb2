package workload

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/sim"
)

// TestConfigOnUsedEngineMatchesBuildConfig pins the lending of the engine's
// random source to config building: on an engine that has just run another
// scenario at another seed, the config a sweep draws (buildConfig from
// Engine.Rand) has the same crashes and initiations as BuildConfig's, which
// draws from a fresh source.
func TestConfigOnUsedEngineMatchesBuildConfig(t *testing.T) {
	base := Spec{
		N:           6,
		MaxSteps:    300,
		Network:     sim.FairLossyNetwork(0.3),
		Oracle:      fd.StrongOracle{Seed: 1},
		Protocol:    core.NewStrongFDUDC,
		Actions:     5,
		MaxFailures: 3,
	}
	cascade := base
	cascade.Adversary = adversary.CascadeCrashes{}
	cascade.ExactFailures = true
	quorum := base
	quorum.N, quorum.Protocol, quorum.Oracle = 7, core.NewQuorumUDC(3), nil
	specs := []Spec{base, cascade, quorum}

	eng := sim.NewEngine()
	for i, spec := range specs {
		prev := specs[(i+1)%len(specs)]
		for _, seed := range []int64{1, 77, 4242} {
			if _, err := eng.Run(BuildConfig(prev, seed+3)); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			got := buildConfig(spec, seed, eng.Rand(seed))
			want := BuildConfig(spec, seed)
			if !reflect.DeepEqual(got.Crashes, want.Crashes) || !reflect.DeepEqual(got.Initiations, want.Initiations) {
				t.Errorf("spec %d seed %d: config drawn on a used engine differs from BuildConfig's\n got %v %v\nwant %v %v",
					i, seed, got.Crashes, got.Initiations, want.Crashes, want.Initiations)
			}
		}
	}
}
