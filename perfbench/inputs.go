package main

import (
	"bytes"
	"fmt"
	"image/jpeg"
	"image/png"
	"math/rand"
	"sort"

	"decamouflage"
	"decamouflage/internal/dataset"
	"decamouflage/internal/imgcore"
)

// Input generation. Every byte or tensor a workload hands the program is
// derived here from the seed, before any clock starts. The program under
// test only ever sees the finished PNG/JPEG bytes or 8-bit tensors.

// geometry is one image size plus the attack's downscale target for it.
type geometry struct{ W, H, DstW, DstH int }

// genSpec fixes every parameter of a workload's inputs; with the seed it
// determines them completely.
type genSpec struct {
	// Geoms lists the image geometries. Each geometry gets PerGeom benign
	// and PerGeom attack images in the pool.
	Geoms   []geometry
	PerGeom int
	// Attacks overrides the per-geometry attack count when positive (the
	// batch workload: one attack in four).
	Attacks int
	// Encoding is "png", "jpeg" or "raw" (decoded tensors, no codec).
	Encoding    string
	JPEGQuality int
	// Eps is the attack's L∞ budget in 8-bit units.
	Eps float64
	// Holdout is the benign calibration holdout size (0: no calibration).
	Holdout int
	// Requests is the length of the request sequence, cycled by the
	// measured loop; 0 for the batch workload.
	Requests int
	// ZipfBlock, when positive, draws request geometries from a Zipf(1)
	// popularity order instead of cycling a shuffled pool: the geometry at
	// rank k (its index in Geoms) gets a share ∝ 1/(k+1). Every block of
	// ZipfBlock consecutive requests holds each geometry's share exactly,
	// rounded, so the mix a run measures does not depend on the seed.
	ZipfBlock int
}

// item is one pool image with its ground truth.
type item struct {
	Attack bool
	Geom   geometry
	Data   []byte         // encoded bytes (png/jpeg)
	Img    *imgcore.Image // decoded tensor (raw)
}

// inputs is everything a run feeds the program.
type inputs struct {
	// Holdout is kept in 8-bit form and widened one image at a time while
	// the set-up clock is paused, so a 512² holdout never sits in memory
	// as forty float tensors.
	Holdout []*imgcore.U8Image
	Pool    []item
	// Order is the request sequence over pool indices.
	Order []int
}

// sub-seed streams, so each corpus draws independent images.
const (
	streamHoldout = iota + 1
	streamBenign
	streamSource
	streamTarget
	streamOrder
)

func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7919 }

// generate builds the inputs of spec for seed. It is deterministic: the same
// (spec, seed) yields byte-identical inputs.
func generate(spec genSpec, seed int64) (*inputs, error) {
	in := &inputs{}
	if spec.Holdout > 0 {
		g := spec.Geoms[0]
		gen, err := corpus(dataset.NeurIPSLike, g.W, g.H, subSeed(seed, streamHoldout))
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.Holdout; i++ {
			u, ok := gen.Image(i).Quantize8().ToU8()
			if !ok {
				return nil, fmt.Errorf("holdout image %d has no 8-bit view", i)
			}
			in.Holdout = append(in.Holdout, u)
		}
	}
	for gi, g := range spec.Geoms {
		benign, err := corpus(dataset.NeurIPSLike, g.W, g.H, subSeed(seed, streamBenign))
		if err != nil {
			return nil, err
		}
		sources, err := corpus(dataset.NeurIPSLike, g.W, g.H, subSeed(seed, streamSource))
		if err != nil {
			return nil, err
		}
		targets, err := corpus(dataset.CaltechLike, g.DstW, g.DstH, subSeed(seed, streamTarget))
		if err != nil {
			return nil, err
		}
		scaler, err := decamouflage.NewScaler(g.W, g.H, g.DstW, g.DstH, decamouflage.Bilinear)
		if err != nil {
			return nil, err
		}
		attacks, benigns := spec.PerGeom, spec.PerGeom
		if spec.Attacks > 0 {
			attacks, benigns = spec.Attacks, spec.PerGeom-spec.Attacks
		}
		for k := 0; k < benigns; k++ {
			it, err := encode(spec, g, false, benign.Image(gi*benigns+k).Quantize8())
			if err != nil {
				return nil, err
			}
			in.Pool = append(in.Pool, it)
		}
		for k := 0; k < attacks; k++ {
			idx := gi*attacks + k
			res, err := decamouflage.CraftAttack(sources.Image(idx), targets.Image(idx), scaler, spec.Eps)
			if err != nil {
				return nil, fmt.Errorf("craft attack %dx%d #%d: %w", g.W, g.H, k, err)
			}
			it, err := encode(spec, g, true, res.Attack)
			if err != nil {
				return nil, err
			}
			in.Pool = append(in.Pool, it)
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamOrder)))
	switch {
	case spec.Requests == 0:
		in.Order = rng.Perm(len(in.Pool))
	case spec.ZipfBlock > 0:
		in.Order = zipfOrder(rng, in.Pool, spec.Geoms, spec.Requests, spec.ZipfBlock)
	default:
		for len(in.Order) < spec.Requests {
			in.Order = append(in.Order, rng.Perm(len(in.Pool))...)
		}
		in.Order = in.Order[:spec.Requests]
	}
	return in, nil
}

func corpus(c dataset.Corpus, w, h int, seed int64) (*dataset.Generator, error) {
	return dataset.NewGenerator(dataset.Config{Corpus: c, W: w, H: h, C: 3, Seed: seed})
}

// encode turns one 8-bit image into a pool item in the spec's encoding.
func encode(spec genSpec, g geometry, attack bool, img *imgcore.Image) (item, error) {
	it := item{Attack: attack, Geom: g}
	var buf bytes.Buffer
	var err error
	switch spec.Encoding {
	case "raw":
		it.Img = img
		return it, nil
	case "png":
		err = png.Encode(&buf, img.ToNRGBA())
	case "jpeg":
		err = jpeg.Encode(&buf, img.ToNRGBA(), &jpeg.Options{Quality: spec.JPEGQuality})
	default:
		err = fmt.Errorf("unknown encoding %q", spec.Encoding)
	}
	if err != nil {
		return item{}, fmt.Errorf("encode %dx%d: %w", g.W, g.H, err)
	}
	it.Data = buf.Bytes()
	return it, nil
}

// zipfOrder builds n requests in shuffled blocks of block requests. Each
// block holds zipfQuotas(len(geoms), block) requests per geometry, each a
// pool image of that geometry drawn at random, benign or attack.
func zipfOrder(rng *rand.Rand, pool []item, geoms []geometry, n, block int) []int {
	byGeom := make([][]int, len(geoms))
	for i, it := range pool {
		for gi, g := range geoms {
			if it.Geom == g {
				byGeom[gi] = append(byGeom[gi], i)
			}
		}
	}
	quotas := zipfQuotas(len(geoms), block)
	order := make([]int, 0, n+block)
	for len(order) < n {
		start := len(order)
		for k, q := range quotas {
			for range q {
				order = append(order, byGeom[k][rng.Intn(len(byGeom[k]))])
			}
		}
		b := order[start:]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return order[:n]
}

// zipfQuotas splits block requests over n popularity ranks in Zipf(1)
// proportion, rounding by largest remainder so the quotas sum to block.
func zipfQuotas(n, block int) []int {
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	quotas := make([]int, n)
	frac := make([]float64, n)
	byFrac := make([]int, n)
	left := block
	for k := range quotas {
		exact := float64(block) / (float64(k+1) * h)
		quotas[k] = int(exact)
		frac[k] = exact - float64(quotas[k])
		byFrac[k] = k
		left -= quotas[k]
	}
	sort.SliceStable(byFrac, func(a, b int) bool { return frac[byFrac[a]] > frac[byFrac[b]] })
	for _, k := range byFrac[:left] {
		quotas[k]++
	}
	return quotas
}
