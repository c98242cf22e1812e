package loadgen

import "testing"

var testMix = Mix{{Class: Query, N: 3}, {Class: Batch, N: 1}, {Class: Release, N: 1}}

func TestGeneratorSameSeedSameSequence(t *testing.T) {
	a, b := NewGenerator(7, 0, testMix), NewGenerator(7, 0, testMix)
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("op %d: %+v and %+v differ under one seed", i, x, y)
		}
		if x.Seq != i || x.Stream != 0 {
			t.Fatalf("op %d numbered %d on stream %d", i, x.Seq, x.Stream)
		}
	}
}

func TestGeneratorOtherSeedOrStreamDiffers(t *testing.T) {
	for _, other := range []*Generator{NewGenerator(8, 0, testMix), NewGenerator(7, 1, testMix)} {
		base := NewGenerator(7, 0, testMix)
		same := 0
		for i := 0; i < 1000; i++ {
			if x, y := base.Next(), other.Next(); x.Class == y.Class && x.Arg == y.Arg {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%d of 1000 operations repeat across seeds or streams", same)
		}
	}
}

func TestGeneratorFollowsMix(t *testing.T) {
	g := NewGenerator(1, 0, Mix{{Class: Query, N: 3}, {Class: Cross, N: 0}, {Class: Batch, N: 1}})
	counts := map[Class]int{}
	for i := 0; i < 8000; i++ {
		counts[g.Next().Class]++
	}
	if counts[Cross] != 0 {
		t.Errorf("a zero-weight class was drawn %d times", counts[Cross])
	}
	if q := counts[Query]; q < 5700 || q > 6300 {
		t.Errorf("query drawn %d of 8000 times, want about 6000", q)
	}
}

func TestGeneratorRejectsEmptyMix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator accepted a mix without weight")
		}
	}()
	NewGenerator(1, 0, Mix{{Class: Query, N: 0}})
}

func TestParamsDeterministic(t *testing.T) {
	op := NewGenerator(3, 0, testMix).Next()
	a, b := op.Params(), op.Params()
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		x, y := a.Intn(10), b.Intn(10)
		if x != y {
			t.Fatalf("draw %d: %d and %d differ for one operation", i, x, y)
		}
		if x < 0 || x >= 10 {
			t.Fatalf("draw %d out of range: %d", i, x)
		}
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Errorf("100 draws hit %d of 10 values", len(seen))
	}
	if NewParams(1).Intn(1<<30) == NewParams(2).Intn(1<<30) {
		t.Error("different seeds drew the same value")
	}
}

func TestStreamSeed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 10; seed++ {
		for stream := 0; stream < 10; stream++ {
			s := StreamSeed(seed, stream)
			if s < 0 {
				t.Fatalf("StreamSeed(%d, %d) = %d is negative", seed, stream, s)
			}
			if seen[s] {
				t.Fatalf("StreamSeed(%d, %d) repeats a seed", seed, stream)
			}
			seen[s] = true
		}
	}
}
