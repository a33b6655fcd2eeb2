package workload_test

import (
	"testing"

	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runGolden pins recorded runs, keyed by the sim.EngineVersion that recorded
// them: a change to the rng draw order, the schedule construction, a
// protocol or the recorded event stream that moves a single byte without
// bumping EngineVersion fails TestRecordedRunsMatchGoldenDigests, because
// every stored run's key names the engine version whose runs it holds.
var runGolden = map[int]struct {
	// catalog holds the SHA-256 of the recorded run's JSON for catalog
	// scenarios at seeds 1, 77 and 4242.
	catalog []goldenRun
	// handBuilt maps a hand-built spec of TestRecordedRunsMatchGoldenDigests
	// to its digests at seeds 1, 77 and 4242.
	handBuilt map[string][3]string
}{
	1: {
		// The first digests were produced by the pre-adversary engine
		// (inline sampler, no channel shaping), locking the refactor of
		// crash sampling into adversary.UniformCrashes.
		catalog: []goldenRun{
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
			// Recorded before the four acknowledgement-driven UDC protocols
			// became one body: every other catalog scenario that runs them or
			// the rotating consensus protocol.
			{"throughput", 1, "353dce14785f83412bb1f5573ba44915c95076d4625b268a903f985f69a8e514"},
			{"throughput", 77, "027d07f65c21c7cf9ef26d33961851a0c10768b20df128d761c31d888dda7096"},
			{"throughput", 4242, "f3c160e4237a86d12d0a1ea5a662c74ce56405e3b4e9ef92f0a8dd0f8a9f6db2"},
			{"thm3.6-extraction", 1, "802d4eaa50a342e7f928db3c4644390a687bfc91fe31ed2268eb1be6261a9ab0"},
			{"thm3.6-extraction", 77, "2b3a6390dfe339020cc3ba03daa2069feb01bca56abd96becbc9d6b8d31568a9"},
			{"thm3.6-extraction", 4242, "f699fb1102755a01ba0a1b86492b3bae86c2c7704574888688274ccffa937efc"},
			{"thm4.3-extraction", 1, "3eadca041e9ec3a34a697542d064d0ad7881f595a6f8ca3762d6fbcef5009c20"},
			{"thm4.3-extraction", 77, "b6395f042dd9c8919119b4dacb496fe35e3b740d850c0d4cdc48fed886bc8802"},
			{"thm4.3-extraction", 4242, "c1970f397572ce4855fddc768affcafb6a6e27f4e8fcc100adf9c4b94b11958e"},
			{"consensus-rotating", 1, "3ea0a22d254afef44b2ecf830f7581ce2e2a0a9a6c818bd9129f782e8570c11e"},
			{"consensus-rotating", 77, "4cd0b7f24d59bc085131b026871e46801dec6b2aafe7ab3299ee7640f22d8f30"},
			{"consensus-rotating", 4242, "1b14ead4ec4b982d537a8611c2194deb9e74383460d1738a8eedb7c57129b882"},
			{"adv-uniform-strong-udc", 1, "a9716652ad040c3d116f0b85d653d1879f4b6fa6fd4c348e9359d456207b150d"},
			{"adv-uniform-strong-udc", 77, "4aa144960e305390521e9b97e282ef000d386ddd30eb0a3fa1b816ba9af1a1f2"},
			{"adv-uniform-strong-udc", 4242, "df028e605b6478c3d62825ae4f5b38ec9026f088287c33d9ffdc504727c9fabe"},
			{"adv-targeted-final-fd", 1, "47eebdb08092773d5dbd2fb09ba6f91e38ebdd3d47cc580d0bb8eeeb50b18ef6"},
			{"adv-targeted-final-fd", 77, "027f7bb72fb875bc16cefa2c965dd9dbb60a6de0d52e8c254e176c45fec1819c"},
			{"adv-targeted-final-fd", 4242, "8bbc46b1f8f2d6d21c8b9cee17511f99bd633f3832ae6daf036dd6fc6cbefb79"},
			{"adv-cascade-strong-udc", 1, "767baf4fae96a8160f2ab8c5d22a8056bd716b83df9c9e2fb9dcb44d2f363b5d"},
			{"adv-cascade-strong-udc", 77, "6369d9580e0b9d013036bdeb2fcd9d48da2e384b1a5edf1a98f71f0bba71660c"},
			{"adv-cascade-strong-udc", 4242, "a92b21acee95cb06a05be7a64ea77b0bc7629d1ae5356c9e55987867d165bdeb"},
			{"adv-late-burst-quorum-udc", 1, "4f4223f7a0d253cb09e1084600d2f5e9edc3d70522b3bf1052f02f2b00cd9896"},
			{"adv-late-burst-quorum-udc", 77, "07b42441c3b115d5da6b66fb32670138f73af163c74aaf8c7206036e66fa5432"},
			{"adv-late-burst-quorum-udc", 4242, "a06c7c84cfc1abc4ec8b299f7e4cbcba6589009c172c2bd5e33b9986551674c5"},
			{"adv-healing-partition-quorum-udc", 1, "419ae96c6ac966530d0c96447ee33500094b57e9f84b770d40da7864c90d4b28"},
			{"adv-healing-partition-quorum-udc", 77, "cfcbd21f3b2394e5ae1a44da48d98d541efc34203a6f3295bb02694aaa431c83"},
			{"adv-healing-partition-quorum-udc", 4242, "3c16674c55d454b976ce09f18e2c48a497f667d7a7c9ac3a9d20d2f0def89d68"},
			{"adv-skewed-delays-strong-udc", 1, "f59ecd00b5637d23da33564b2ad3ef7827f2e19829ab2689822ca66e63e58a2c"},
			{"adv-skewed-delays-strong-udc", 77, "7e6abc9d830ef683ecb227e8a492d2d495e6972bdc74c0d773c6cec880e91358"},
			{"adv-skewed-delays-strong-udc", 4242, "8572a090a86c4f52e1e76c19eac1f01e0d41be7e4a05b26fa16c6a7bc9120f3b"},
			// Recorded before the two relay protocols (Props 2.3 and 2.4)
			// became one body: the duplicate storm floods the nUDC relay.
			{"adv-duplicate-storm-nudc", 1, "3ea902a8c4e1ecc9c86b3879c63be3ec48df788a95cf64d19b790e4dbf5dcb69"},
			{"adv-duplicate-storm-nudc", 77, "8ef495f9ce3d5a3be57f2c73c133c8549ce3709618e226cc06246173d5bf4383"},
			{"adv-duplicate-storm-nudc", 4242, "8d5607fd2c8ced90b74f9fe22fefb3f5f7efb84973dea7e2b674c6eb59d61ab9"},
		},
		handBuilt: map[string][3]string{
			"tuseful-under-strong": {
				"802d4eaa50a342e7f928db3c4644390a687bfc91fe31ed2268eb1be6261a9ab0",
				"2b3a6390dfe339020cc3ba03daa2069feb01bca56abd96becbc9d6b8d31568a9",
				"f699fb1102755a01ba0a1b86492b3bae86c2c7704574888688274ccffa937efc",
			},
			"strong-under-impermanent-weak": {
				"82bcd135ccd85f3e40f753c46c2baf8204fccb3415e90ec75c17f689e59de700",
				"6232d74a9a6e9d32fee203ead5922dedb6971796f98cc77a19e44d809b11faa5",
				"cd9f99d9a069f584b81a2510e1bb26ebea6c5b355068b7fa66b15dc64a9a69bc",
			},
			"quiescent-under-false-suspicions": {
				"d2eaaea7436044cbf9c4d6f60a36dec96223a272af2a6ae641a4ff296d9bd3aa",
				"83e16c792a1c2edbab39128b8ebd2a42721835626b3d9af2753e2af831c164df",
				"6a7a284d4f1eb7bff58d991e6601f52dce0de12cc6298df2d62f46734413d755",
			},
		},
	},
}

// goldenRun is one catalog scenario's recorded-run digest at one seed.
type goldenRun struct {
	scenario string
	seed     int64
	digest   string
}

// TestRecordedRunsMatchGoldenDigests records every golden run and compares
// its digest with runGolden's table for the current sim.EngineVersion.  If a
// change is *intended* to alter recorded runs, bump EngineVersion, add its
// table and say so in the commit.
func TestRecordedRunsMatchGoldenDigests(t *testing.T) {
	want, ok := runGolden[sim.EngineVersion]
	if !ok {
		t.Fatalf("no run golden for EngineVersion %d", sim.EngineVersion)
	}
	for _, g := range want.catalog {
		spec := registry.MustScenario(g.scenario).Spec
		res, err := workload.Execute(spec, g.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", g.scenario, g.seed, err)
		}
		if got := runDigest(t, res.Run); got != g.digest {
			t.Errorf("%s seed %d: recorded run diverged under EngineVersion %d\n got %s\nwant %s",
				g.scenario, g.seed, sim.EngineVersion, got, g.digest)
		}
	}
	// Protocol/detector pairings no catalog scenario runs, each reaching a
	// branch of the acknowledgement-driven UDC protocols the catalog leaves
	// alone; recorded with the entries above that name the one body.
	handBuilt := []struct {
		name string
		spec func() workload.Spec
	}{
		{
			// A standard report S becomes the generalized report (S, |S|).
			// These runs equal thm3.6-extraction's, which runs Prop 3.1's
			// protocol: no union of reports there covers the non-ackers
			// before a single report does.
			name: "tuseful-under-strong",
			spec: func() workload.Spec {
				spec := registry.MustScenario("thm3.6-extraction").Spec
				spec.Protocol = registry.MustProtocol("tuseful", registry.Options{T: 3})
				return spec
			},
		},
		{
			// Corollary 3.2: suspicions are retracted, the protocol keeps them.
			name: "strong-under-impermanent-weak",
			spec: func() workload.Spec {
				spec := registry.MustScenario("prop3.1-strong-udc").Spec
				spec.Oracle = registry.MustOracle("impermanent-weak", registry.Options{})
				return spec
			},
		},
		{
			// Footnote 11's resend skips falsely suspected processes.
			name: "quiescent-under-false-suspicions",
			spec: func() workload.Spec {
				spec := registry.MustScenario("quiescent-udc").Spec
				spec.Oracle = registry.MustOracle("strong", registry.Options{Seed: 17, FalseSuspicionRate: 0.3})
				return spec
			},
		},
	}
	for _, h := range handBuilt {
		digest, ok := want.handBuilt[h.name]
		if !ok {
			t.Fatalf("%s: no golden under EngineVersion %d", h.name, sim.EngineVersion)
		}
		for i, seed := range []int64{1, 77, 4242} {
			res, err := workload.Execute(h.spec(), seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", h.name, seed, err)
			}
			if got := runDigest(t, res.Run); got != digest[i] {
				t.Errorf("%s seed %d: recorded run diverged under EngineVersion %d\n got %s\nwant %s",
					h.name, seed, sim.EngineVersion, got, digest[i])
			}
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
