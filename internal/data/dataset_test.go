package data

import (
	"testing"

	"repro/internal/tensor"
)

func tinyDataset(n, classes int) *Dataset {
	ds := &Dataset{NumClasses: classes, Height: 2, Width: 2, Channels: 1}
	rng := tensor.NewRNG(1)
	for i := 0; i < n; i++ {
		x := make([]float64, 4)
		tensor.Normal(rng, x, 0, 1)
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, i%classes)
	}
	return ds
}

func TestValidateOK(t *testing.T) {
	ds := tinyDataset(12, 3)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadLabel(t *testing.T) {
	ds := tinyDataset(4, 2)
	ds.Y[0] = 5
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

func TestValidateCatchesShapeMismatch(t *testing.T) {
	ds := tinyDataset(4, 2)
	ds.Height = 3
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestValidateCatchesRaggedRows(t *testing.T) {
	ds := tinyDataset(4, 2)
	ds.Height, ds.Width, ds.Channels = 0, 0, 0
	ds.X[2] = ds.X[2][:3]
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestValidateCountMismatch(t *testing.T) {
	ds := tinyDataset(4, 2)
	ds.Y = ds.Y[:3]
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for X/Y count mismatch")
	}
}

func TestSubsetSharesFeatures(t *testing.T) {
	ds := tinyDataset(10, 2)
	sub := ds.Subset([]int{3, 7})
	if sub.Len() != 2 {
		t.Fatalf("subset len %d", sub.Len())
	}
	sub.X[0][0] = 42
	if ds.X[3][0] != 42 {
		t.Fatal("Subset should share feature storage")
	}
	if sub.Y[1] != ds.Y[7] {
		t.Fatal("Subset labels wrong")
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	ds := tinyDataset(30, 3)
	// Tag each sample's first feature with its label so we can verify the
	// (x, y) pairing survives the shuffle.
	for i := range ds.X {
		ds.X[i][0] = float64(ds.Y[i])
	}
	ds.Shuffle(tensor.NewRNG(9))
	for i := range ds.X {
		if int(ds.X[i][0]) != ds.Y[i] {
			t.Fatal("shuffle broke (x,y) pairing")
		}
	}
}

func TestClassCounts(t *testing.T) {
	ds := tinyDataset(12, 3)
	counts := ds.ClassCounts()
	for c, n := range counts {
		if n != 4 {
			t.Fatalf("class %d count %d want 4", c, n)
		}
	}
}

func TestSamplerDrawsValidBatches(t *testing.T) {
	ds := tinyDataset(20, 4)
	s := NewSampler(ds, tensor.NewRNG(5))
	b := s.Sample(8)
	if len(b.X) != 8 || len(b.Y) != 8 {
		t.Fatalf("batch sizes %d/%d", len(b.X), len(b.Y))
	}
	for i := range b.Y {
		if b.Y[i] < 0 || b.Y[i] >= 4 {
			t.Fatalf("bad label %d", b.Y[i])
		}
	}
}

func TestSamplerPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSampler(&Dataset{NumClasses: 2}, tensor.NewRNG(1))
}

func TestSyntheticDeterminism(t *testing.T) {
	tr1, te1 := MNISTLike(5)
	tr2, te2 := MNISTLike(5)
	if tr1.Len() != tr2.Len() || te1.Len() != te2.Len() {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range tr1.X {
		for j := range tr1.X[i] {
			if tr1.X[i][j] != tr2.X[i][j] {
				t.Fatal("features differ across identical seeds")
			}
		}
		if tr1.Y[i] != tr2.Y[i] {
			t.Fatal("labels differ across identical seeds")
		}
	}
}

func TestSyntheticSeedsDiffer(t *testing.T) {
	tr1, _ := MNISTLike(1)
	tr2, _ := MNISTLike(2)
	same := true
	for j := range tr1.X[0] {
		if tr1.X[0][j] != tr2.X[0][j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical first sample")
	}
}

func TestSyntheticShapesAndValidity(t *testing.T) {
	for name, gen := range map[string]func(uint64) (*Dataset, *Dataset){
		"mnist": MNISTLike, "cifar10": CIFAR10Like, "cifar100": CIFAR100Like,
	} {
		tr, te := gen(3)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s train: %v", name, err)
		}
		if err := te.Validate(); err != nil {
			t.Fatalf("%s test: %v", name, err)
		}
		if tr.Len() == 0 || te.Len() == 0 {
			t.Fatalf("%s produced empty split", name)
		}
	}
}

func TestSyntheticClassBalance(t *testing.T) {
	tr, _ := MNISTLike(7)
	for c, n := range tr.ClassCounts() {
		if n != 240 {
			t.Fatalf("class %d has %d samples want 240", c, n)
		}
	}
}

func TestNormalizer(t *testing.T) {
	tr, te := MNISTLike(13)
	nz := FitNormalizer(tr)
	nz.Apply(tr)
	nz.Apply(te)
	// After standardization the training mean should be ~0 and std ~1.
	refit := FitNormalizer(tr)
	for j := range refit.Mean {
		if m := refit.Mean[j]; m < -1e-9 || m > 1e-9 {
			t.Fatalf("post-normalize mean[%d] = %v", j, m)
		}
		if s := refit.Std[j]; s < 0.999 || s > 1.001 {
			t.Fatalf("post-normalize std[%d] = %v", j, s)
		}
	}
}
