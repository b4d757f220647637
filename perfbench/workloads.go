package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"decamouflage"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
)

// workload is one named input set and the way the harness drives the
// program with it. Every workload is a closed loop with a single caller:
// the next call starts when the previous one returns.
type workload struct {
	name string
	spec genSpec
	// batch is the DetectBatch size; 0 means one decode+Detect per request.
	batch int
	// calibrate selects the canonical three-method ensemble, black-box
	// calibrated at the 1st percentile of the benign holdout; otherwise the
	// calibration-free steganalysis-only ensemble.
	calibrate bool
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// minCalls is the fewest measured calls an untraced run makes, so the
	// p99 has at least ten samples beyond it.
	minCalls int
	// window is the number of calls in one window of the measured phase.
	// Throughput and heap peak are medians over windows, so a short burst
	// of interference from outside the process moves one window, not the
	// run's figure.
	window int
}

// cspGeoms are the 24 geometries of csp-jpeg-mixed in popularity order,
// mostly not powers of two (Bluestein FFTs), each side a multiple of 4 so
// the 4× attack target is exact. They are ordered by measured cost, most
// expensive first, so the latency tail comes from the popular geometries
// rather than from how often a seed happens to draw a rare one.
var cspGeoms = func() []geometry {
	sides := [][2]int{
		{260, 304}, {228, 316}, {244, 288}, {252, 308}, {240, 320}, {236, 300},
		{244, 316}, {216, 264}, {248, 292}, {232, 280}, {220, 276}, {208, 312},
		{256, 320}, {200, 296}, {236, 272}, {228, 260}, {204, 268}, {212, 284},
		{192, 300}, {212, 248}, {200, 244}, {192, 256}, {224, 256}, {196, 232},
	}
	out := make([]geometry, len(sides))
	for i, s := range sides {
		out[i] = geometry{W: s[0], H: s[1], DstW: s[0] / 4, DstH: s[1] / 4}
	}
	return out
}()

var workloads = []workload{
	{
		name: "gateway-png128",
		spec: genSpec{
			Geoms: []geometry{{W: 128, H: 128, DstW: 32, DstH: 32}}, PerGeom: 32,
			Encoding: "png", Eps: 2, Holdout: 40, Requests: 4096,
		},
		calibrate: true, setupReps: 15, minCalls: 1000, window: 100,
	},
	{
		name: "csp-jpeg-mixed",
		spec: genSpec{
			Geoms: cspGeoms, PerGeom: 3, Encoding: "jpeg", JPEGQuality: 90,
			Eps: 2, Requests: 4096, ZipfBlock: 100,
		},
		setupReps: 25, minCalls: 1000, window: 100,
	},
	{
		name: "audit-raw512",
		spec: genSpec{
			Geoms: []geometry{{W: 512, H: 512, DstW: 128, DstH: 128}}, PerGeom: 16, Attacks: 4,
			Encoding: "raw", Eps: 2, Holdout: 40,
		},
		batch: 16, calibrate: true, setupReps: 3, window: 1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase counts the operations of one stage of a run.
type phase struct {
	name                    string
	sent, succeeded, failed int
}

// runner drives one workload through set-up, the measured loop and the
// final verification, checking every verdict as it goes.
type runner struct {
	wl     workload
	in     *inputs
	ctx    context.Context
	scaler *decamouflage.Scaler // nil for the steganalysis-only ensemble
	rec    *Recorder            // nil when untraced
	rep    *replica
	heap   *heapPeak
	// first holds each pool image's first verdict; later visits must match
	// it exactly.
	first []*detect.EnsembleVerdict
	errs  []string

	// Set-up measurements, one per repetition.
	setupS, calibS, coldMS, setupHeapMB []float64
	// Traced-run ratios, one per image visit.
	overlap, batchSpeedup []float64
}

func newRunner(ctx context.Context, wl workload, in *inputs, rec *Recorder) (*runner, error) {
	r := &runner{wl: wl, in: in, ctx: ctx, rec: rec, heap: newHeapPeak(), first: make([]*detect.EnsembleVerdict, len(in.Pool))}
	if wl.calibrate {
		g := wl.spec.Geoms[0]
		s, err := decamouflage.NewScaler(g.W, g.H, g.DstW, g.DstH, decamouflage.Bilinear)
		if err != nil {
			return nil, err
		}
		r.scaler = s
	}
	rep, err := newReplica(r.scaler, rec)
	if err != nil {
		return nil, err
	}
	r.rep = rep
	return r, nil
}

func (r *runner) fail(ph *phase, err error) {
	ph.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, ph.name+": "+err.Error())
	}
}

// setup builds the ensemble from the generated holdout up to its first
// verdict, wl.setupReps times, and returns the last ensemble. Each
// repetition's time covers holdout scoring, calibration, ensemble
// construction and the first (cold) call; widening the 8-bit holdout into
// tensors is input preparation and runs with the clock paused. The cold
// call is the whole batch, or a request for pool image 0, a benign image
// of the most popular geometry, so every seed pays the same cold cost.
func (r *runner) setup(ph *phase) (*detect.Ensemble, error) {
	var ens *detect.Ensemble
	for rep := 0; rep < r.wl.setupReps; rep++ {
		root := r.rec.Open("setup", -1, 0, time.Now())
		e, busy, err := r.build(root)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if r.wl.batch > 0 {
			r.batch(e, ph, false)
		} else {
			r.request(e, 0, ph, false)
		}
		cold := time.Since(t)
		r.rec.Add("detect.cold", -1, root, t, t.Add(cold), -1)
		r.rec.Close(root, time.Now())
		r.coldMS = append(r.coldMS, ms(cold))
		r.setupS = append(r.setupS, (busy + cold).Seconds())
		r.setupHeapMB = append(r.setupHeapMB, r.heap.cut())
		ens = e
	}
	return ens, nil
}

// build constructs one ensemble and returns it with the clock time spent.
func (r *runner) build(root int) (*detect.Ensemble, time.Duration, error) {
	if !r.wl.calibrate {
		t := time.Now()
		d, err := decamouflage.NewSteganalysisDetector()
		if err != nil {
			return nil, 0, err
		}
		e, err := detect.NewEnsemble(d)
		return e, time.Since(t), err
	}
	var busy time.Duration
	span := r.rec.Open("detect.calibrate", -1, root, time.Now())
	sScores := make([]float64, 0, len(r.in.Holdout))
	fScores := make([]float64, 0, len(r.in.Holdout))
	for i, u := range r.in.Holdout {
		img, err := imgcore.FromU8(u)
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		s, err := decamouflage.ScoreScaling(r.scaler, decamouflage.MSE, img)
		if err == nil {
			var f float64
			f, err = decamouflage.ScoreFiltering(2, decamouflage.SSIM, img)
			fScores = append(fScores, f)
		}
		busy += time.Since(t)
		r.heap.observe()
		if err != nil {
			return nil, 0, fmt.Errorf("score holdout image %d: %w", i, err)
		}
		sScores = append(sScores, s)
	}
	t := time.Now()
	sTh, err := decamouflage.CalibrateBlackBox(sScores, 1, decamouflage.MSE)
	if err != nil {
		return nil, 0, err
	}
	fTh, err := decamouflage.CalibrateBlackBox(fScores, 1, decamouflage.SSIM)
	if err != nil {
		return nil, 0, err
	}
	busy += time.Since(t)
	r.rec.Close(span, time.Now())
	r.calibS = append(r.calibS, busy.Seconds())
	t = time.Now()
	e, err := decamouflage.NewEnsemble(r.scaler, sTh, fTh)
	return e, busy + time.Since(t), err
}

// loop is what one measured closed loop saw.
type loop struct {
	lats []float64 // per call, ms
	// ips and heapMB hold one value per full window of wl.window calls:
	// images per second of wall time, and the live-heap peak above the
	// baseline.
	ips, heapMB []float64
	images      int
}

// measure runs the closed loop for at least d (and at least minCalls
// calls).
func (r *runner) measure(ens *detect.Ensemble, ph *phase, d time.Duration, minCalls int, traced bool) loop {
	// The loop must finish well inside the harness's per-run time limit
	// even on a machine far slower than intended.
	const hardCap = 100 * time.Second
	var l loop
	start := time.Now()
	winStart, winImages := start, 0
	for seq := 0; ; seq++ {
		if el := time.Since(start); (el >= d && len(l.lats) >= minCalls) || el >= hardCap {
			return l
		}
		var lat time.Duration
		n := 1
		if r.wl.batch > 0 {
			lat = r.batch(ens, ph, traced)
			n = r.wl.batch
		} else {
			lat = r.request(ens, r.in.Order[seq%len(r.in.Order)], ph, traced)
		}
		l.images += n
		winImages += n
		l.lats = append(l.lats, ms(lat))
		if len(l.lats)%r.wl.window == 0 {
			now := time.Now()
			l.ips = append(l.ips, float64(winImages)/now.Sub(winStart).Seconds())
			l.heapMB = append(l.heapMB, r.heap.cut())
			winStart, winImages = now, 0
		}
	}
}

// request decodes one pool image's bytes and runs Detect on it, the unit
// of work of a gateway. Traced, it records a request span with decode and
// detect children and then runs the replica, all outside the timing.
func (r *runner) request(ens *detect.Ensemble, idx int, ph *phase, traced bool) time.Duration {
	rd := bytes.NewReader(r.in.Pool[idx].Data)
	var m0, m1 int64
	if traced {
		m0 = mallocs()
	}
	t0 := time.Now()
	img, err := decamouflage.DecodeImage(rd)
	t1 := time.Now()
	if traced {
		m1 = mallocs()
	}
	t2 := time.Now()
	var v *detect.EnsembleVerdict
	if err == nil {
		v, err = decamouflage.Detect(r.ctx, ens, img)
	}
	t3 := time.Now()
	if traced {
		m2 := mallocs()
		req := r.rec.Open("request", idx, 0, t0)
		r.rec.Add("imgcore.decode", idx, req, t0, t1, m1-m0)
		r.rec.Add("detect.detect", idx, req, t2, t3, m2-m1)
		r.rec.Close(req, t3)
	}
	r.heap.observe()
	ph.sent++
	if err != nil {
		r.fail(ph, fmt.Errorf("image %d: %w", idx, err))
	} else {
		r.check(ph, idx, img, v, traced, t3.Sub(t2))
	}
	return t3.Sub(t0)
}

// batch runs one DetectBatch over the whole pool, the unit of work of an
// offline audit. Traced, it then scores each image with a single Detect
// (for the batch speed-up) and runs the replica on it.
func (r *runner) batch(ens *detect.Ensemble, ph *phase, traced bool) time.Duration {
	imgs := make([]*imgcore.Image, len(r.in.Order))
	for k, idx := range r.in.Order {
		imgs[k] = r.in.Pool[idx].Img
	}
	t0 := time.Now()
	vs, err := decamouflage.DetectBatch(r.ctx, ens, imgs)
	t1 := time.Now()
	r.heap.observe()
	lat := t1.Sub(t0)
	if traced {
		r.rec.Add("detect.batch", -1, 0, t0, t1, -1)
	}
	ph.sent += len(imgs)
	if err != nil {
		for range imgs {
			r.fail(ph, err)
		}
		return lat
	}
	var single time.Duration
	for k, idx := range r.in.Order {
		var d time.Duration
		if traced {
			m0 := mallocs()
			t := time.Now()
			v, err := decamouflage.Detect(r.ctx, ens, imgs[k])
			d = time.Since(t)
			r.rec.Add("detect.detect", idx, 0, t, t.Add(d), mallocs()-m0)
			single += d
			if err == nil && !sameVerdict(v, vs[k]) {
				err = fmt.Errorf("single-image Detect differs from DetectBatch")
			}
			if err != nil {
				r.fail(ph, fmt.Errorf("image %d: %w", idx, err))
				continue
			}
		}
		r.check(ph, idx, imgs[k], vs[k], traced, d)
	}
	if traced {
		r.batchSpeedup = append(r.batchSpeedup, float64(single)/float64(lat))
	}
	return lat
}

// check holds a verdict to the oracle: it must equal the image's first
// verdict exactly, and — traced — the replica's scores bit for bit.
func (r *runner) check(ph *phase, idx int, img *imgcore.Image, v *detect.EnsembleVerdict, traced bool, detectDur time.Duration) {
	if first := r.first[idx]; first == nil {
		r.first[idx] = v
	} else if !sameVerdict(first, v) {
		r.fail(ph, fmt.Errorf("image %d: verdict differs from its first visit", idx))
		return
	}
	if traced {
		scores, busy, err := r.rep.scores(r.ctx, img, idx)
		if err == nil {
			err = checkScores(v, scores)
		}
		if err != nil {
			r.fail(ph, fmt.Errorf("image %d replica: %w", idx, err))
			return
		}
		if detectDur > 0 {
			r.overlap = append(r.overlap, float64(busy)/float64(detectDur))
		}
	}
	ph.succeeded++
}

// verify runs the untraced replica on every pool image, compares its
// scores with the image's verdict bit for bit (detecting images the loop
// never reached), and returns the share of verdicts matching ground truth.
func (r *runner) verify(ens *detect.Ensemble, ph *phase) float64 {
	rep := *r.rep
	rep.rec = nil
	correct := 0
	for idx, it := range r.in.Pool {
		ph.sent++
		img := it.Img
		var err error
		if img == nil {
			img, err = decamouflage.DecodeImage(bytes.NewReader(it.Data))
		}
		v := r.first[idx]
		if err == nil && v == nil {
			v, err = decamouflage.Detect(r.ctx, ens, img)
			r.first[idx] = v
		}
		if err == nil {
			var scores map[string]float64
			if scores, _, err = rep.scores(r.ctx, img, idx); err == nil {
				err = checkScores(v, scores)
			}
		}
		if err != nil {
			r.fail(ph, fmt.Errorf("image %d: %w", idx, err))
			continue
		}
		ph.succeeded++
		if v.Attack == it.Attack {
			correct++
		}
	}
	return float64(correct) / float64(len(r.in.Pool))
}
