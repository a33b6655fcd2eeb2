package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// codecGolden pins the container bytes of the codec, keyed by the
// CodecVersion that wrote them: a change to the recorded-event layout or to
// the encoder that moves a single byte without bumping CodecVersion fails
// here, because every stored entry's key names the version whose bytes it
// holds.  The pairs are TestRecordedRunsMatchGoldenDigests's, so the JSON
// digests there and the binary digests here cover the same runs.
var codecGolden = map[int]struct {
	// runs maps "scenario/seed" to the SHA-256 of EncodeRun and of
	// EncodeSeedRecord (scored by the scenario's evaluator).
	runs map[string][2]string
	// extraction is the SHA-256 of EncodeExtractionRecord for kx-perfect
	// at 16 runs.
	extraction string
	// outcomes maps "scenario/seed" to the SHA-256 of EncodeOutcome of the
	// outcome a sweep serves for that seed, so the scoring path's bytes are
	// pinned as well as the recorded run's.
	outcomes map[string]string
}{
	1: {
		runs: map[string][2]string{
			"prop2.3-nudc/1":                 {"3840eff228011847bad44fc3658d5427ffa9406a59d041f6fef4551a6d658f07", "28942828d9e94beb69ff27eae9635ccb854860e2a36e31b0455d474a85d4fc24"},
			"prop2.3-nudc/77":                {"25acc279eafea83235e742766f87312d0838e42a3d0ab8e9884ab233e0565ad7", "2842da4b2923b764670b8b632dc1e978a060b27d5f94071fc0096cb403c32866"},
			"prop2.3-nudc/4242":              {"43483d0bd04314d3452e556576d2318a17891b5eef58890feafe2576a9413e6e", "28c69746bd8c505ff0542b4f30c83934e954387849e186a178deec540e4f2434"},
			"prop3.1-strong-udc/1":           {"236f7d8d06893f442a9ef8eab27c039a42ae0db57915848ad624dca5449daa3f", "6bf4476f99c9e273b65c9c7028d5442ab6cb3ccacc1429e803cb1ee4a932192e"},
			"prop3.1-strong-udc/77":          {"3293437d2e1530d4fb9bc9a2cc6fb51e7067de402d6936f87304ad7e10ad0aff", "b1e67182c0463fd6ee10b5bcf355cb5a4ff066171020b9e2e83ea6eb37af05c5"},
			"prop3.1-strong-udc/4242":        {"a09658e3aafee8c00d4f0ea38e2acb9474af888b4c2d489e6b6ec2d32d55871a", "7b30252f92bc948c48cef13aaaf06ef0dcdbc7640530ddef00d2b3267aa6837f"},
			"prop4.1-tuseful-udc/1":          {"d379f1f40cbe25eb3a7c56284c53fc3e26ba8364fcb329c58d55d24046721824", "e93c416e0e326451d92cba6ea0f90b28459148ee8c5fa6847028373e677299a8"},
			"prop4.1-tuseful-udc/77":         {"a10602a14924cbbed76051c4f96bf659f19577f6c8c333267085ff6107bca357", "1d7f8a2a18312370fa91d3c2fe49ad38b4f094547845f3ee72b5758cafc256ea"},
			"prop4.1-tuseful-udc/4242":       {"7355a517edda0504a32f000530813c93489a3189a7ffc4c2953b3f490e2693da", "1077369a637ec6520ef94b93e46713ab4dcd78d21cccce6690b307593c8a6c2e"},
			"cor4.2-quorum-udc/1":            {"a1e01c584414dc378c76b74afbf2e4060a248e0856c6d6edefd88b7832600697", "856d58a300321ddc61de932274f6f4b54f663a842249c6ad408998b11b872b8b"},
			"cor4.2-quorum-udc/77":           {"fd7ea0832708078c86c3472ea81639510c874b54ab2626d25bc843ab75a71581", "0ae829f24222e26d9fabe94a1256a74aca07236d5626c3cbbff7c56649b722b4"},
			"cor4.2-quorum-udc/4242":         {"14026c822bffa6de6ff14cceda9c928bbd00cc028766f2b1f06d348bfb0e4911", "32a74ef93cdaa360546d26313b4f7765c71eeea084ddbc5e4ce9deb1eb89b75c"},
			"consensus-majority/1":           {"457da4bc22e44cc7b7beeac0fb02b06fe28096d1688ca504055f17fb9c635b02", "e9e2bfeba2b7b643392735604bf8cb8ebfcb0afdc98059372d4768c24a661b76"},
			"consensus-majority/77":          {"1cff7a6f3aeddc6219c8c5c0857769e35d79b314df75d4a3a873cb75999d06e1", "b4ee485678a4ee9007551b5e5a17b5a85cd421c5b27c5568ee4eec9248d601bd"},
			"consensus-majority/4242":        {"db3a09c1e176f33b16c5aefd713ec307218b2a0ac29fc735490c42be2e481d6a", "75b349c3bc697043c1f65572a556ccaf08c42a7d8881b6686fc556f7d18b6e24"},
			"crossover-quorum/1":             {"a310f5b694da4d460f61c1e2521121775625c2ac6af2c62e2a88c1990bd1e106", "eeb69fad19b4ab766afda969cde0b45eefdc04b6aff1cab2d3ef263afd598a46"},
			"crossover-quorum/77":            {"c9d6f28c75e4903a76ffcdc87ac457336c756538ee5efeadbde77425a1c04468", "c8a3a3d4b5cb31afad3cf969478bd64ab8ac5adda5d9d5ddd5e277a0c0d368f2"},
			"crossover-quorum/4242":          {"ef4ba3f6fd7a47e831450b046cfb5c19004e2952ea2a7edd06c88bf54afb1d35", "7562be0df95c955c95821ec0b0bfb88da8d7f70d8c210fd06f5754d80594da3f"},
			"adv-burst-loss-strong-udc/1":    {"548b9d90e1f100e86ff475f45d06059aeede148a5b93af249836275474107b11", "c2728d5cbf11ffde13d03d4a9712ef4c2165af819db16bef585ecf116fdbb802"},
			"adv-burst-loss-strong-udc/77":   {"6d385074a70baa878bf04f89c7888c2af9bee2d7a034cebaa62a3fb764c8e02a", "f3170549916649281c82581640799fc42054400c2357bbd67d7899b01471de9a"},
			"adv-burst-loss-strong-udc/4242": {"ec02894b559eb157726598219036cd8aaa50c736fb21450fef4c9333fba9622c", "984df35f88078bc51d658842f60aab3edf487a3ea2617b7c88101ee8d0970f4b"},
			"adv-targeted-consensus/1":       {"f5a635fbb20cc7036bc4d0197c43b4e162793797e1197999c47af01f64c1a3d1", "518d9c10ef3fe5c57ce2f57c8d78b127a4ce9726737c3236a1487be433bb37f2"},
			"adv-targeted-consensus/77":      {"815997be2e15f1a6afe47f09e54de8486e34d1da5729fe5cbd66f77c273e8acb", "328c30de5ea8010cee893f02f96a39112faf4cede7e72a1c6b33c45baeec38db"},
			"adv-targeted-consensus/4242":    {"65e00ebcd66b844cfb12c7cdae148d4571f81f19a16715f28944ed23700f8c53", "bdd999562a1221cd21876c55ec0e8c45648d39fd09000ceafa3a6a62ffd02e64"},
			"prop2.4-reliable-udc/1":         {"1dd0d46aaf27feeb33e6e70ca9b8ecfdc348204d3fda8e146b31aa8e71df6bc5", "cbfa6b46a213fc1220fd95c6e06110b807cc73d05a0911cf08e6ccf8ccfdf718"},
			"prop2.4-reliable-udc/77":        {"435700c120865fc60153c13c48b5671903067309aa8b37826031040b43b21d29", "0eb241983139623ee3de2f5b1bcdbfc7458fbf655019421f566e537b8f56680f"},
			"prop2.4-reliable-udc/4242":      {"e520864da8e330235b936a030263e7de75ac42879df234cd03ec1ce831495d76", "d3573c08738a1301b50dc9d6a41c3a97db728a45394dad06ab726f5a60766d7a"},
			"quiescent-udc/1":                {"e36f721e3c54d41fbc631994032ed916ff04a0dae4dcce6f6ca8f4aca8a6331b", "22d98bb555e153457afca7b98eff04c8ff2edb2de5893ee06ba552e002f023aa"},
			"quiescent-udc/77":               {"f5ee09c16b3334fc636729e39f6d361377417dc011c95405f0bb34356cf1f166", "a75b3e6bc3034c4af80a9ecef13698b8b21e2a3c7e76e8c4904e226d39b2ce5a"},
			"quiescent-udc/4242":             {"6fa23b2fb19c8ead2175806b343b72968e324f8ed182109d194ed6047c5a68c4", "f43d704e7a5efdf31e6af2a4f89d423e02dd7b8852f66dfe5397b1a026de9ac4"},
			"retransmit-udc/1":               {"8b41a6b16cc5c76711c7d2a9223265822b3eb9ac1e1d2e45fda7aeba29e2c5a7", "f212d473e8c55a14ed9ab333eb0ae90c88fc16cb3cd523f4c0119d28b638ea9e"},
			"retransmit-udc/77":              {"ade4eeb3e27162425e0fe5a9055e4e758981cb1de51cff9fc24f7664d41663cc", "5ebdc74b7d87903823dfc660cc85bbf4b9a295f7f461024023814c01da645107"},
			"retransmit-udc/4242":            {"f38b953ad28de96448c4a4753d25e7c40a80716d9ca680f0cd9671b76eb67ab2", "53203d8c62ce1cba3c46fac54f397239858721e04b83baaa71bf2e1480d46aac"},
		},
		extraction: "9486f89f165842970e1e91e3f897e4872c7c9ca7dff0107d43f4540976089e80",
		outcomes: map[string]string{
			"prop2.3-nudc/1":                 "14da9e54861aefa8395b1a35179b7d0964334ecfd7d5ad69951e80b3b33c289b",
			"prop2.3-nudc/77":                "107cb06afde41f7d2646231dc60c9ad8b2fb51e2b321cd17c866dcd45ad3658a",
			"prop2.3-nudc/4242":              "bb84968d53346cbfe78f6b682f83d0a22e85cc3a8da1fb4a0c2b3737c450c696",
			"prop3.1-strong-udc/1":           "4e46f0b0b68917e9d0019bc9255276fc67864872d788d3eb97bc72fea5d5fb17",
			"prop3.1-strong-udc/77":          "3c6a61859e6db0f2d93c839d95b3966dd5b06963bd3bbc6a827621116cc416f4",
			"prop3.1-strong-udc/4242":        "4ceede115c3134f7af414f0277c8e152d5b93d6e9948816036025ea0c399a071",
			"prop4.1-tuseful-udc/1":          "24286e5aee28803decb08d99198a4240eb6ae9a83058ee47abd6eedddae5bcef",
			"prop4.1-tuseful-udc/77":         "97756d37776028220d420d40ac2ca3deb01991eeab546bbb5fbf6349d4bead0c",
			"prop4.1-tuseful-udc/4242":       "53fceaade7737b7ee67bc070fb09a21276658526f068234dbadf42630e13d762",
			"cor4.2-quorum-udc/1":            "f1be2bdfb4d8b7dfa8d9a8adead35cff229cd993f798b1d14bfd0c5620561295",
			"cor4.2-quorum-udc/77":           "b316926fe02055276e9066cb5fcb33d7794b5f59b145ec8ddc34abc1928e749a",
			"cor4.2-quorum-udc/4242":         "4a8065b0315e0ac874f27dd54d5a29964db250c71190ce4402a45c134d048f74",
			"consensus-majority/1":           "1346e96d846f2eb41b6f2897dadbacb683ddf75f43ee5a6bae647bfd1ff460c8",
			"consensus-majority/77":          "7217dcae0e53e785c73a4ddd49a2530f9cc198db41a04e296dc19353d9fc2cba",
			"consensus-majority/4242":        "dd72b3a0abe3c7317c7f0cf97b15dcb4d292c7186350b9038118858b9b2db207",
			"crossover-quorum/1":             "45da7d0416da9f3672f230c9fc6a89afc4abcadba525b59051277f46df75e718",
			"crossover-quorum/77":            "4db76d2c4f2737e4e23608c92a936a49a0aeb2c1653489fef3ac0a43a5117114",
			"crossover-quorum/4242":          "bdc7a5be46bd87ed5735bbb89683cffbc3358c3126277c0066a165870728220f",
			"adv-burst-loss-strong-udc/1":    "95674ad4076ee9370be2f2b361227b99340ea2232f126d19f68775a307a50170",
			"adv-burst-loss-strong-udc/77":   "f8549c7ce4bcde7b373e5032ad8a99ed130291fabdb8addb37c941f86c631311",
			"adv-burst-loss-strong-udc/4242": "46111ff585b0892709c36a12a56881177b13459748ed02b4e9bf2b3901daea09",
			"adv-targeted-consensus/1":       "ce13ac9dcebc5cc87baf31d6dc2c3c098c11cc647cb7f0097880ca9bfdb82b7d",
			"adv-targeted-consensus/77":      "8d60fcd354687d19636572a5479e3b93657071f84804ba84502274d75a3f9591",
			"adv-targeted-consensus/4242":    "6eaaf82c3874736e17e354ce93dfc2f376625aaea6cd28c295d3511fad97e2c0",
			"prop2.4-reliable-udc/1":         "09368c2e9cea1fba3306e104e3c03e617bf90e4362cc8156d99a4afce76fe2cc",
			"prop2.4-reliable-udc/77":        "08cedafddb4341a2f6de19ace8f5bfc743a4035f3b58cdc5aafee525975d7597",
			"prop2.4-reliable-udc/4242":      "49d0891eeffa6d5aa15b41a2ea9eb14cfac51903d1fcb0c7f7119f9fe1bb1329",
			"quiescent-udc/1":                "b0048c63dc195995ea02f45dff7ff808fd4e891c5db8c5524793e803ef15e62e",
			"quiescent-udc/77":               "40fcacf6fab18d91d224a2873863c0c93131481b8283702fc62c177d8fac456a",
			"quiescent-udc/4242":             "1be8887f9c6fc09ba69488f86e48096d776a1911b0c42ad2b0c8f3245f3b2e52",
			"retransmit-udc/1":               "8d47fd75644a95ab08ab2f1508dad334c51b460a3a69a1115b77c5686ff87acf",
			"retransmit-udc/77":              "4ef0e4f20490209f1d897529c35a2a83a0d75aac53d567622bbd2d7196186772",
			"retransmit-udc/4242":            "bf51cddbc2074bc85e0fd8cbf8b792c90ddc217ec846d76ef9da14d273527e45",
		},
	},
}

// goldenPairs are the (scenario, seed) pairs of the recorded-run golden.
var goldenPairs = []struct {
	scenario string
	seeds    []int64
}{
	{"prop2.3-nudc", []int64{1, 77, 4242}},
	{"prop3.1-strong-udc", []int64{1, 77, 4242}},
	{"prop4.1-tuseful-udc", []int64{1, 77, 4242}},
	{"cor4.2-quorum-udc", []int64{1, 77, 4242}},
	{"consensus-majority", []int64{1, 77, 4242}},
	{"crossover-quorum", []int64{1, 77, 4242}},
	{"adv-burst-loss-strong-udc", []int64{1, 77, 4242}},
	{"adv-targeted-consensus", []int64{1, 77, 4242}},
	{"prop2.4-reliable-udc", []int64{1, 77, 4242}},
	{"quiescent-udc", []int64{1, 77, 4242}},
	{"retransmit-udc", []int64{1, 77, 4242}},
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCodecBytesMatchGolden encodes the golden pairs' runs, seed records and
// outcomes and one extraction record, and compares each container's SHA-256
// with the table for the current CodecVersion.  The outcomes are RunAll's,
// which TestRunAllMatchesSweepAll holds byte-identical to the ones a sweep
// serves.  On a mismatch it prints the whole table as Go source, for a
// change that bumps CodecVersion on purpose.
func TestCodecBytesMatchGolden(t *testing.T) {
	want, ok := codecGolden[store.CodecVersion]
	if !ok {
		t.Fatalf("no codec golden for CodecVersion %d", store.CodecVersion)
	}
	var table, outcomes strings.Builder
	failed := false
	for _, pair := range goldenPairs {
		sc := registry.MustScenario(pair.scenario)
		seeds, err := workload.Runner{Workers: 1}.RunAll([]workload.Task{{Spec: sc.Spec, Seeds: pair.seeds, Eval: sc.Eval}})
		if err != nil {
			t.Fatalf("%s: %v", pair.scenario, err)
		}
		for i, sr := range seeds[0] {
			key := fmt.Sprintf("%s/%d", pair.scenario, pair.seeds[i])
			got := [2]string{sha(store.EncodeRun(sr.Run)), sha(store.EncodeSeedRecord(store.NewSeedRecord(sr, true)))}
			fmt.Fprintf(&table, "\t\t\t%q: {%q, %q},\n", key, got[0], got[1])
			if got != want.runs[key] {
				failed = true
				t.Errorf("%s: container bytes moved under CodecVersion %d\n got %v\nwant %v", key, store.CodecVersion, got, want.runs[key])
			}
			outcome := sha(store.EncodeOutcome(sr.Outcome))
			fmt.Fprintf(&outcomes, "\t\t\t%q: %q,\n", key, outcome)
			if outcome != want.outcomes[key] {
				failed = true
				t.Errorf("%s: outcome bytes moved under CodecVersion %d\n got %s\nwant %s", key, store.CodecVersion, outcome, want.outcomes[key])
			}
		}
	}
	sc, err := registry.LookupExtraction("kx-perfect")
	if err != nil {
		t.Fatal(err)
	}
	ext := sc.Extraction
	ext.Runs = 16
	res, err := workload.Runner{Workers: 1}.Extract(ext)
	if err != nil {
		t.Fatal(err)
	}
	got := sha(store.EncodeExtractionRecord(store.NewExtractionRecord("", sc.Stress, res)))
	if got != want.extraction {
		failed = true
		t.Errorf("kx-perfect extraction record bytes moved under CodecVersion %d\n got %s\nwant %s", store.CodecVersion, got, want.extraction)
	}
	if failed {
		t.Logf("table for CodecVersion %d:\n\t%d: {\n\t\truns: map[string][2]string{\n%s\t\t},\n\t\textraction: %q,\n\t\toutcomes: map[string]string{\n%s\t\t},\n\t},",
			store.CodecVersion, store.CodecVersion, table.String(), got, outcomes.String())
	}
}
