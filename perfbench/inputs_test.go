package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"testing"
)

// smallSpecs cover every encoding and ordering path of the generator at
// sizes a unit test can afford.
var smallSpecs = map[string]genSpec{
	"png": {
		Geoms: []geometry{{W: 32, H: 32, DstW: 8, DstH: 8}}, PerGeom: 2,
		Encoding: "png", Eps: 2, Holdout: 2, Requests: 8,
	},
	"jpeg-zipf": {
		Geoms:   []geometry{{W: 36, H: 44, DstW: 9, DstH: 11}, {W: 40, H: 48, DstW: 10, DstH: 12}},
		PerGeom: 1, Encoding: "jpeg", JPEGQuality: 90, Eps: 2, Requests: 16, ZipfBlock: 6,
	},
	"raw": {
		Geoms: []geometry{{W: 32, H: 32, DstW: 8, DstH: 8}}, PerGeom: 4, Attacks: 1,
		Encoding: "raw", Eps: 2, Holdout: 2,
	},
}

// digest hashes every byte and sample the generator hands the program,
// plus the labels, geometries and request order.
func digest(t *testing.T, spec genSpec, seed int64) [32]byte {
	t.Helper()
	in, err := generate(spec, seed)
	if err != nil {
		t.Fatalf("generate(seed %d): %v", seed, err)
	}
	h := sha256.New()
	ints := func(vs ...int) {
		for _, v := range vs {
			writeU64(h, uint64(v))
		}
	}
	for _, u := range in.Holdout {
		ints(u.W, u.H, u.C)
		h.Write(u.Pix)
	}
	for _, it := range in.Pool {
		ints(it.Geom.W, it.Geom.H, it.Geom.DstW, it.Geom.DstH, len(it.Data))
		if it.Attack {
			ints(1)
		}
		h.Write(it.Data)
		if it.Img != nil {
			ints(it.Img.W, it.Img.H, it.Img.C)
			for _, v := range it.Img.Pix {
				writeU64(h, math.Float64bits(v))
			}
		}
	}
	ints(in.Order...)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func TestGenerateDeterministic(t *testing.T) {
	for name, spec := range smallSpecs {
		t.Run(name, func(t *testing.T) {
			a, b := digest(t, spec, 1), digest(t, spec, 1)
			if a != b {
				t.Fatal("the same seed produced different inputs")
			}
			if c := digest(t, spec, 2); c == a {
				t.Fatal("two seeds produced identical inputs")
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	in, err := generate(smallSpecs["raw"], 3)
	if err != nil {
		t.Fatal(err)
	}
	attacks := 0
	for _, it := range in.Pool {
		if it.Attack {
			attacks++
		}
		if _, ok := it.Img.ToU8(); !ok {
			t.Fatal("raw tensor is not 8-bit")
		}
	}
	if len(in.Pool) != 4 || attacks != 1 || len(in.Order) != 4 || len(in.Holdout) != 2 {
		t.Fatalf("pool=%d attacks=%d order=%d holdout=%d, want 4/1/4/2",
			len(in.Pool), attacks, len(in.Order), len(in.Holdout))
	}

	in, err = generate(smallSpecs["jpeg-zipf"], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Order) != 16 {
		t.Fatalf("order has %d requests, want 16", len(in.Order))
	}
	for _, idx := range in.Order {
		if idx < 0 || idx >= len(in.Pool) {
			t.Fatalf("request index %d outside the pool", idx)
		}
	}
}

// Every block of a Zipf order holds the same number of requests per
// geometry, falling with popularity rank, so no seed changes the mix.
func TestZipfBlocksHoldExactShares(t *testing.T) {
	q := zipfQuotas(24, 100)
	sum := 0
	for k, n := range q {
		sum += n
		if n < 1 || (k > 0 && n > q[k-1]) {
			t.Fatalf("quotas %v: rank %d gets %d", q, k, n)
		}
	}
	if sum != 100 || q[0] != 27 {
		t.Fatalf("quotas %v sum to %d, want 100 with 27 for rank 0", q, sum)
	}
	for _, seed := range []int64{1, 2} {
		in, err := generate(smallSpecs["jpeg-zipf"], seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := smallSpecs["jpeg-zipf"]
		want := zipfQuotas(len(spec.Geoms), spec.ZipfBlock)
		for lo := 0; lo+spec.ZipfBlock <= len(in.Order); lo += spec.ZipfBlock {
			got := make([]int, len(spec.Geoms))
			for _, idx := range in.Order[lo : lo+spec.ZipfBlock] {
				for k, g := range spec.Geoms {
					if in.Pool[idx].Geom == g {
						got[k]++
					}
				}
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("seed %d block at %d: per-geometry counts %v, want %v", seed, lo, got, want)
				}
			}
		}
	}
}

// Every workload's generator parameters must be usable: geometries whose
// attack target divides evenly and pools that hold both labels.
func TestWorkloadSpecs(t *testing.T) {
	for _, w := range workloads {
		if len(w.spec.Geoms) == 0 || w.setupReps < 1 {
			t.Errorf("%s: no geometries or set-up repetitions", w.name)
		}
		for _, g := range w.spec.Geoms {
			if g.W%g.DstW != 0 || g.H%g.DstH != 0 {
				t.Errorf("%s: %dx%d does not scale to %dx%d by a whole ratio", w.name, g.W, g.H, g.DstW, g.DstH)
			}
		}
		if w.calibrate && w.spec.Holdout == 0 {
			t.Errorf("%s: calibrated ensemble without a holdout", w.name)
		}
	}
	if len(cspGeoms) != 24 {
		t.Errorf("csp-jpeg-mixed has %d geometries, want 24", len(cspGeoms))
	}
}
