package workload_test

import (
	"testing"

	"repro/internal/registry"
	"repro/internal/workload"
)

// TestRecordedRunsMatchGoldenDigests locks the refactor of crash sampling
// into adversary.UniformCrashes: the digests below were produced by the
// pre-adversary engine (inline sampler, no channel shaping), so any change to
// the rng draw order, the schedule construction or the recorded event stream
// of the standing scenarios shows up as a digest mismatch.  If a change to
// the simulator is *intended* to alter recorded runs, regenerate the table
// and say so in the commit.
func TestRecordedRunsMatchGoldenDigests(t *testing.T) {
	golden := []struct {
		scenario string
		seed     int64
		digest   string
	}{
		{"prop2.3-nudc", 1, "47a436c97c8ab5935bf177f059aa50f3584b763e3fb58d85c1dad8127580ea44"},
		{"prop2.3-nudc", 77, "dd2ed443e051422fbd8d83cf10426ed25a1da89fad14b3922465075892ef25ce"},
		{"prop2.3-nudc", 4242, "0049792308b7d44a365bda0ad5a6d4c31db06d5edb69e484c8a26cba9a53373e"},
		{"prop3.1-strong-udc", 1, "02ddf727607c727a380c3c035ccacc88f6af37de583f85e6af5eda8a6388efb9"},
		{"prop3.1-strong-udc", 77, "72d3a516e3bd15163047d9a6895fa0bd17fe81cbca53ecd490a0ed845f88ad38"},
		{"prop3.1-strong-udc", 4242, "cb22ee0afec7f30226d299268349f98239ca1c9315de7289c386be988c6ccecb"},
		{"prop4.1-tuseful-udc", 1, "0f976bdd062486bee4666768b6ac003cbbde41440345ba3736b4c4257b852479"},
		{"prop4.1-tuseful-udc", 77, "780c27b97febcfc1619a133d27aa122a43a503982031c3879d42ea6ecbbf0608"},
		{"prop4.1-tuseful-udc", 4242, "825917f7e872d74f3ff896c85d428d900523bd6a41ec3c9945c760dd31bf16ef"},
		{"cor4.2-quorum-udc", 1, "fe0881fe69a4b1578c6d3e0a225c4d40af981b543eb663a8ce9d2de123cfa4a4"},
		{"cor4.2-quorum-udc", 77, "84c8423983c06dee0ba574275ab3803ba6c50b6d01aae3c799c33a3ab8c17b0f"},
		{"cor4.2-quorum-udc", 4242, "58a6b1e6ded1782a815fc312e6abfdb66f634d8f65d3918066cdeb706ebc044b"},
		{"consensus-majority", 1, "44199f1c8687f4cb43bf39eb098bb2cfb98d091c47d25874c1a66168b0f8c10c"},
		{"consensus-majority", 77, "e32b2f37e19088edd938488bbea3dae73be2893110053509c601ae162477f3fa"},
		{"consensus-majority", 4242, "5e60016859bed8152381961379262e63fbc0b3d5ba7ade5c7974469cc750c3ba"},
		{"crossover-quorum", 1, "ee3a1c22b6437f19f2f2a5c987bbce670beb38205e1cf26514b9a210aab6ebf2"},
		{"crossover-quorum", 77, "4d9ef738d8e769702d3129a417265bbcc89f395442467879742105b6039a2df2"},
		{"crossover-quorum", 4242, "729ea0867df3e7c7dc9486e54cbec74fdfb070141c00b378dc93919aa62576e2"},
		// Recorded by the map-based fairness accounting, before the
		// per-channel drop lists: shaper drops and duplicates, and many
		// message identities per channel.
		{"adv-burst-loss-strong-udc", 1, "a209b35f3b4af1fc917163dbfe4e2f5f728d9bfcbd0a75020dd29735c7c6db8a"},
		{"adv-burst-loss-strong-udc", 77, "a00dab17f0bb90f95860dbb98d84e60fad874545034dccf5a3727570f6706d0b"},
		{"adv-burst-loss-strong-udc", 4242, "7c385e3058aecd7c3830bc82232dc93b1b6ca127cd031ee1d5fb7ebc15838ab7"},
		{"adv-targeted-consensus", 1, "742bb108b1ca5338cd1103f337bd7651698e2840bf3b0077517172f1862cae65"},
		{"adv-targeted-consensus", 77, "43fadd35998bd71a64f6ae8564e7040510aef804261c41afc8966f19b566894b"},
		{"adv-targeted-consensus", 4242, "09513f99369b5a5e999a849c947306b931ba1195d011d399f94e0a3f193d4842"},
		// Recorded before the protocols' per-action maps became one
		// insertion-ordered table: relay-then-perform (Prop 2.4), the
		// footnote-11 quiescent variant and its always-retransmitting
		// baseline.
		{"prop2.4-reliable-udc", 1, "f346b5f54127154c8f099c1644b6c572382d1cd4c91c72c341ec654e6ad7037b"},
		{"prop2.4-reliable-udc", 77, "60129311b2d52494604791bce4ff77f5692b069395c6ad5c577754bfd4b87834"},
		{"prop2.4-reliable-udc", 4242, "d8dfeb2e9586de732edd3b24d3e3c6f5a16481838383e28cb09ba37741e23491"},
		{"quiescent-udc", 1, "48fa5111d05245348b28022852250d2e4ad1656250d2d88d0b4469cc96299876"},
		{"quiescent-udc", 77, "17862e453e8f8b9b38a3b33c107fdddcd24de1214e278a379fd1e4d00fc1b2d7"},
		{"quiescent-udc", 4242, "5259b774c8a8a8bfd09b52b2c97442682889c16a69d52b35573974ebe0257707"},
		{"retransmit-udc", 1, "6cdcf2d61ec92348c47d853637d5f98af4219d191192eb95d39015534ad2c32a"},
		{"retransmit-udc", 77, "afe6e395ccb3729c8615d7467b1797abf85c7046e3444abecda49c5c37dc2f7e"},
		{"retransmit-udc", 4242, "04d55ec97cc4be64665d9dead55b6ca29ee807ea9bd70ebe195525dd7cc0f7cd"},
	}
	for _, g := range golden {
		spec := registry.MustScenario(g.scenario).Spec
		res, err := workload.Execute(spec, g.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", g.scenario, g.seed, err)
		}
		if got := runDigest(t, res.Run); got != g.digest {
			t.Errorf("%s seed %d: recorded run diverged from the pre-adversary engine\n got %s\nwant %s",
				g.scenario, g.seed, got, g.digest)
		}
	}
}

// TestExplicitUniformAdversaryMatchesDefault pins Spec.Adversary's nil
// default: setting adversary "uniform" explicitly must not change a single
// recorded byte relative to leaving the field nil.
func TestExplicitUniformAdversaryMatchesDefault(t *testing.T) {
	for _, seed := range []int64{1, 77, 4242} {
		spec := registry.MustScenario("prop3.1-strong-udc").Spec
		implicit, err := workload.Execute(spec, seed)
		if err != nil {
			t.Fatalf("implicit: %v", err)
		}
		spec.Adversary = registry.MustAdversary("uniform")
		explicit, err := workload.Execute(spec, seed)
		if err != nil {
			t.Fatalf("explicit: %v", err)
		}
		if runDigest(t, implicit.Run) != runDigest(t, explicit.Run) {
			t.Errorf("seed %d: explicit uniform adversary diverged from nil default", seed)
		}
	}
}
