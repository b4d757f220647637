// Forensics: beyond a binary verdict, the steganalysis spectrum reveals
// WHAT the attacker was aiming at. The attack comb's spectral replicas are
// spaced by the embedded target's geometry, so a flagged image can be
// traced to the model-input size — and hence the deployed CNN family —
// the adversary targeted (the paper's Table 1 becomes a suspect lineup).
//
// Run with:
//
//	go run ./examples/forensics
package main

import (
	"fmt"
	"log"

	"decamouflage"
	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/steg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("forensics: ")

	// The attacker prepares camouflage images for a LeNet-style 32x32
	// pipeline; the auditor does not know this. The 16x16 case is an 8x
	// ratio, where the spectral replicas dim below the fixed CSP >= 2 rule
	// (EXPERIMENTS.md, X9): CSP misses it, and the case runs the estimator
	// on it anyway to show that the geometry is still in the spectrum. In
	// deployment the estimator only follows a flagged verdict.
	const srcW, srcH = 128, 128
	cases := []struct {
		name       string
		dstW, dstH int
	}{
		{"LeNet-5-sized pipeline (32x32)", 32, 32},
		{"smaller embedded target (16x16)", 16, 16},
	}
	covers, err := dataset.NewGenerator(dataset.Config{
		Corpus: dataset.CaltechLike, W: srcW, H: srcH, C: 3, Seed: 77,
	})
	if err != nil {
		log.Fatal(err)
	}

	stegDet, err := decamouflage.NewSteganalysisDetector()
	if err != nil {
		log.Fatal(err)
	}

	for ci, tc := range cases {
		targets, err := dataset.NewGenerator(dataset.Config{
			Corpus: dataset.CaltechLike, W: tc.dstW, H: tc.dstH, C: 3, Seed: int64(80 + ci),
		})
		if err != nil {
			log.Fatal(err)
		}
		scaler, err := decamouflage.NewScaler(srcW, srcH, tc.dstW, tc.dstH, decamouflage.Bilinear)
		if err != nil {
			log.Fatal(err)
		}
		res, err := decamouflage.CraftAttack(covers.Image(ci), targets.Image(ci), scaler, 2)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("case: %s\n", tc.name)
		v, err := stegDet.Detect(res.Attack)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  steganalysis verdict: attack=%v (CSP=%.0f)\n", v.Attack, v.Score)

		// The estimator sweeps its own binarization levels, so default
		// options serve both ratios.
		w, h, ok := steg.EstimateTargetSize(res.Attack, steg.Options{})
		if !ok {
			fmt.Println("  no measurable spectral replicas; cannot estimate target size")
			continue
		}
		fmt.Printf("  estimated attacker target geometry: %dx%d (true %dx%d)\n",
			w, h, tc.dstW, tc.dstH)
		matches := detect.MatchModels(w, h, 3)
		if len(matches) == 0 {
			fmt.Println("  no known CNN family uses that input size")
		}
		for _, m := range matches {
			fmt.Printf("  likely targeted model family: %s (%dx%d input)\n", m.Model, m.W, m.H)
		}
	}

	// Benign control: forensics are follow-up on FLAGGED images. A benign
	// image below the CSP threshold never reaches the estimator, so
	// periodic benign texture cannot create a false trail.
	benign := covers.Image(9)
	v, err := stegDet.Detect(benign)
	if err != nil {
		log.Fatal(err)
	}
	if v.Attack {
		fmt.Println("benign control: unexpectedly flagged")
	} else {
		fmt.Printf("benign control: CSP=%.0f, not flagged — forensics never consulted\n", v.Score)
	}
}
