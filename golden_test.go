package hcoc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// releaseDigest hashes a sparse release canonically: paths in sorted
// order, each followed by its runs as little-endian (size, count)
// pairs. It depends only on the released histograms, not on any
// serialization format.
func releaseDigest(rel SparseHistograms) string {
	paths := make([]string, 0, len(rel))
	for p := range rel {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	var buf []byte
	for _, p := range paths {
		buf = append(buf[:0], p...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rel[p])))
		for _, r := range rel[p] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Size))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Count))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests pins the exact output of ReleaseSparse. The
// differential suites compare pipelines that share the noise sampler
// and the isotonic fits, so only a fixed digest catches a change to the
// noise stream or to a fit's tie-breaking; a kernel optimization must
// leave every entry unchanged. Keys are tree/method/epsilon/seed.
var goldenDigests = map[string]string{
	"housing/Hc/0.01/1":     "d99b4e7265c6ce84b17503b1d78d2f4210c853607c9a04cfec32c06098203e43",
	"housing/Hc/0.01/2":     "05c6d74aa492057667c5d4bad1abe9583d1bd634508b66ae9db3bc49f3ac283c",
	"housing/Hc/0.01/3":     "127f44f2acc15c1e0c4c0a1e0e5fa1c3c58e914b0de1c51525153b7548a0c9dc",
	"housing/Hc/1/1":        "b14e934ee0cb3374c1bc4595afbcf55236f79af39944f905edccdbbb1e496cc3",
	"housing/Hc/1/2":        "32785ab852c16a1df68db4b6685ef7d00867d52da684f57ab1704793ca726df5",
	"housing/Hc/1/3":        "fb32d1767dd3ff08869a3b81639c8d007c22db93bb58b3b823fad719be5178e3",
	"housing/Hg/0.01/1":     "41b93a9cba3272521ca1cf5f8a683bf970cd06c61622a2175707cd2021926da2",
	"housing/Hg/0.01/2":     "47c7065d76d5605a06728d135ba9992d8068a19e4dc30bb8821983e100c3841c",
	"housing/Hg/0.01/3":     "6f0145af013a25123226b5f20cf27b3880ede0d9ed00bd4e108170a49e55f356",
	"housing/Hg/1/1":        "631963342b62fe9e7a79d512afaac1cf9a80c2112ff432ecc91d368ce765c3d8",
	"housing/Hg/1/2":        "815d095938b4ce3f99b2febd29309afa97e7fed5b306dc7382eb99de8da5ceaa",
	"housing/Hg/1/3":        "0029f965b108a5bd85cd8b2e231e3f1ccce8ac258f59690e714525bc1101c435",
	"housing/Naive/0.01/1":  "54a970344a92155587de5a6c5272cd18d3268278881d26b9ebb41b3b30468c78",
	"housing/Naive/0.01/2":  "ca369d558462dfc338730e1a3a34d5caedaf71daa35f030c571938ed53a6ea61",
	"housing/Naive/0.01/3":  "7a090aa676c9a07f9ae18285dcf4141295fe171e2214d7eb6a462e092d705540",
	"housing/Naive/1/1":     "719024487f36a543955c4f27f890c385485b80ae8446357e66ac7ef902e469de",
	"housing/Naive/1/2":     "58b2cb592a948e1ac3f332adb639f5d627b76714dbb02cf937a93b5b3d6d176a",
	"housing/Naive/1/3":     "e8db2bf01cfdf7afd63fdb872012b79645a8076f8d5a2f944c803e3b26503c9a",
	"housing/Hc(L2)/0.01/1": "2952e3be49af7cee7d28f20aac324f5fcc03d288deea43236574dc6e49453e75",
	"housing/Hc(L2)/0.01/2": "03022ad408c81f02d19960ab498b84926adb31c1bdc6306581affd844bc374b1",
	"housing/Hc(L2)/0.01/3": "7c9796b13f2f72dc7d560e88b570827667f75370fa7923e49a8c2c843d8272d0",
	"housing/Hc(L2)/1/1":    "0f94a2bab1b9a0e82df077aad486863f79d396804ea9bc115eebe56af5455c00",
	"housing/Hc(L2)/1/2":    "50040a75e14c9f028b7bc623496859159bc0c900989d9a9e974302898e9b8d1c",
	"housing/Hc(L2)/1/3":    "94984ff7f8aa049dc799a0f445a47ab3978673c33e606376e9ddf80ee6fd27da",
	"census/Hc/0.01/1":      "40b5ff84a1951674b7c78c9f28cd45d275b5e7be0ae20a4b915074cd23f20b22",
	"census/Hc/0.01/2":      "02734f3e0efff2681d2629fb3ed1a26ec34b9274ea0ae976823e8d16a4b7504e",
	"census/Hc/0.01/3":      "c2bf3e26a5aa38c8d2f0b2fd7033b913948eef7e02cc226bf8e3278506f3161e",
	"census/Hc/1/1":         "a89067da26f0c3150442a47894cf3a16a806bb270ee18a3e4ca4e1700574db3c",
	"census/Hc/1/2":         "69317ba1e01b14fadd99e220dcc088989104ebbfebbb91823bd19b7a64ec44a1",
	"census/Hc/1/3":         "8df4ccad8cfe4c486316fcca911c8829f0927987c79973f7ac0bd2859cb17896",
	"census/Hg/0.01/1":      "b34683cc810915590ae7c96f08b3638a1979111be2e72541fe142afa0b756449",
	"census/Hg/0.01/2":      "764ed7d140fdeb7ddbcaf618afad99ea43a223c68f0afc3efa46cc104a6d9f9d",
	"census/Hg/0.01/3":      "bb06ed49ec0af41ca2fcc97a97adb7580c5737ff9e3305bf803c456fc48025f3",
	"census/Hg/1/1":         "5218cf69ca0b34647cb1ace411e782965413a9bdb24b4a0ffaac3d5166fe8263",
	"census/Hg/1/2":         "4502f6359e1be90890efa8809e5533ac3e1b661258906bd6a48a0cdcdbb270c2",
	"census/Hg/1/3":         "a87cd158d1da9cb4abcc1b50a301a0d9a181015a7663d2b6470c45931915c40c",
	"census/Naive/0.01/1":   "7b200ca02f92a704426cc70f16346a1fc4046a2ffa4646c396ec00a77b0d9aa0",
	"census/Naive/0.01/2":   "2cc3a8f9d7b3981ae6933a0b21d52e47edd41cda1777f99c96e7d746eff0500e",
	"census/Naive/0.01/3":   "8d5c2457a965a717807a406cd2d942325b02d9e043864ff4b19b20b38d576aad",
	"census/Naive/1/1":      "3eed3547e512914ba0142f562bc55106118b9af7771f8ea9b4ac05090e3a4987",
	"census/Naive/1/2":      "b2935d3ad9b829b240e77e6e269dc7bfd1879099f70b79bb950923bc1acdebd5",
	"census/Naive/1/3":      "7e94083e55514ba51db3bd84004d8cc42d360a507356c0b56a22085530a544b2",
	"census/Hc(L2)/0.01/1":  "6902ef1ed363ede5f3754485d0d426fc83f2f4be0bbde22dbc12bf3f83b280f8",
	"census/Hc(L2)/0.01/2":  "0649a39a3c8c0da486ea6f23b01cc2c7d265ec70b9e455c86cfa42dd0fad6197",
	"census/Hc(L2)/0.01/3":  "ea2640326279a89474ad5db08b3f90a60496d41794daf99800468178223e2b2d",
	"census/Hc(L2)/1/1":     "4a29e733c7981e2b0a4d52c20ed6ab266b9d80f98ae487394c85c6051e651dbc",
	"census/Hc(L2)/1/2":     "be0a3edcb381b32949adbd9e5a5ec6bfa4fbecc1a3e092bb0df70fc0249f054c",
	"census/Hc(L2)/1/3":     "c2ae5249a3172973ab7bd46f34b6fb6557e2d8f72c06564ab745e0b7d5609db2",
	"taxi/Hc/0.01/1":        "601c310a22d1a36ebb5007f66f6d3cbbc1d414d2532c31a722676d51047ee08c",
	"taxi/Hc/0.01/2":        "227bcc426956fdccfd64de6b9c897428937d141c3214b1e7128330d0faa748f4",
	"taxi/Hc/0.01/3":        "4241910c7e88c051af3d5242cca831a8c9dea835cd677287cd504cd66bb4d488",
	"taxi/Hc/1/1":           "fab38af1ac8630a959ff587aa68f5ff8c4c493edf181d3aab69b2342671082d9",
	"taxi/Hc/1/2":           "08524a6d4401678490427b6c10225f2510c2021e8a067a71c1cfdd4f65044d53",
	"taxi/Hc/1/3":           "7accf9c02374301a1ece50c643df59f67f805628e0d0bafa32b4103ee587cf23",
	"taxi/Hg/0.01/1":        "7d6a76ff867ab8fc5ac96885dfd72f28abeb8533e11d392d28b17ea80694fa90",
	"taxi/Hg/0.01/2":        "98f923a0525dbdd3d061887db2267289ea46677bc63b42e95fdbbcd97afc83b1",
	"taxi/Hg/0.01/3":        "682d828ffe8e9c8e262169e7ba5ab817dae82c11e7572b30a42de037e2b1220a",
	"taxi/Hg/1/1":           "e5ef97a43f476433107b94856104ddcaa7aef7c22e93dcb2134cbcecbb3f3b16",
	"taxi/Hg/1/2":           "a60ada362a48353d85c09f010492dc660cdc5f18b07db09a8bae32e9eb61b4d1",
	"taxi/Hg/1/3":           "ab99abdd160f63dbef5705277823b590e62be6274e82c647efe47a727c7f1ec5",
	"taxi/Naive/0.01/1":     "4856fbed6690375ffd883f8de298eeed0f14a64fa02b76bb042a11631eecce7f",
	"taxi/Naive/0.01/2":     "1f50f363b58402abdb156449d457fc4efec049b96a22f42847ec05a05426d9ec",
	"taxi/Naive/0.01/3":     "a7ad05b55527013b0003962e6335bdab2f92f053e9912e99c7ace270cbbb83f2",
	"taxi/Naive/1/1":        "d27a88ad3b520209dee98865be81a8a4bc81d44eb929782618e72cd29b1cc3b2",
	"taxi/Naive/1/2":        "0090249f44f38999cf2c8e2b61e1099ccc474191263a35b75e28072285afb80f",
	"taxi/Naive/1/3":        "fb1606ba5aef8ec133a7b5fa7d89ecab117e6ab13dc4a61a7c51ef6e614307cc",
	"taxi/Hc(L2)/0.01/1":    "2901ab7e6bfd962790c60c9da519e5c681b91dcbbbbb4b6aacdca609979e29f3",
	"taxi/Hc(L2)/0.01/2":    "80a71e32453be2a770b0431721409ca651712bea6a02ef7c8d7f37168dc0f94a",
	"taxi/Hc(L2)/0.01/3":    "aac0e4609944027405a594c202a4e26fd7cc58f43bc2c980a2c257b7ff820266",
	"taxi/Hc(L2)/1/1":       "aa43643b18264d58b0fef396483af1f375addb9d1d55f917335a600f68746886",
	"taxi/Hc(L2)/1/2":       "fc12bc7341d2dfcdb0738212fb77cd0f5c16f2a8692d8843d1d05031793c551a",
	"taxi/Hc(L2)/1/3":       "b59d18e9117aaf0b8573b5a2f1f69137f7cd9d4dbdad3650ff4243a2d94cda58",
}

func TestReleaseSparseGoldenDigests(t *testing.T) {
	trees := []struct {
		name string
		kind DatasetKind
		cfg  DatasetConfig
	}{
		{"housing", DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.01, Levels: 3, WestCoast: true}},
		{"census", DatasetRaceHawaiian, DatasetConfig{Seed: 2, Scale: 0.05}},
		{"taxi", DatasetTaxi, DatasetConfig{Seed: 3, Scale: 0.02, Levels: 3}},
	}
	methods := []Method{MethodHc, MethodHg, MethodNaive, MethodHcL2}
	seen := 0
	for _, tr := range trees {
		tree, err := SyntheticTree(tr.kind, tr.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			for _, eps := range []float64{0.01, 1} {
				for _, seed := range []int64{1, 2, 3} {
					key := fmt.Sprintf("%s/%v/%g/%d", tr.name, m, eps, seed)
					rel, err := ReleaseSparse(tree, Options{
						Epsilon: eps, K: 3000, Methods: []Method{m}, Seed: seed,
					})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					seen++
					if got, want := releaseDigest(rel), goldenDigests[key]; got != want {
						t.Errorf("%q: %q, // want %q", key, got, want)
					}
				}
			}
		}
	}
	if seen != len(goldenDigests) {
		t.Errorf("ran %d releases, table pins %d", seen, len(goldenDigests))
	}
}
