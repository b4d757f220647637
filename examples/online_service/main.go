// Online detection service: the paper's run-time deployment mode. An HTTP
// endpoint receives images (as a vision API gateway would), runs the
// Decamouflage ensemble in front of the model's downscaler, and rejects
// attack images in milliseconds.
//
// Run with:
//
//	go run ./examples/online_service
//
// then POST a PNG/JPEG:
//
//	curl -s --data-binary @image.png http://localhost:8642/v1/check
//
// The example also exercises itself: it starts the server, submits one
// benign and one attack image, prints both verdicts, and exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"decamouflage"
	"decamouflage/internal/dataset"
)

const (
	srcW, srcH = 128, 128
	dstW, dstH = 32, 32
)

type server struct {
	ensemble *decamouflage.Ensemble
}

type verdictResponse struct {
	Attack    bool    `json:"attack"`
	Votes     int     `json:"votes"`
	Methods   int     `json:"methods"`
	CSP       float64 `json:"csp"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *server) check(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an image body", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 32<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	img, err := decamouflage.DecodeImage(bytes.NewReader(body))
	if err != nil {
		http.Error(w, "undecodable image: "+err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	v, err := decamouflage.Detect(r.Context(), s.ensemble, img)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := verdictResponse{
		Attack:    v.Attack,
		Votes:     v.Votes,
		Methods:   len(v.Verdicts),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, verdict := range v.Verdicts {
		if verdict.Method == "steganalysis/CSP" {
			resp.CSP = verdict.Score
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func buildEnsemble() (*decamouflage.Ensemble, *decamouflage.Scaler, error) {
	scaler, err := decamouflage.NewScaler(srcW, srcH, dstW, dstH, decamouflage.Bilinear)
	if err != nil {
		return nil, nil, err
	}
	// Black-box calibration on an in-house benign hold-out set.
	holdout, err := dataset.NewGenerator(dataset.Config{
		Corpus: dataset.NeurIPSLike, W: srcW, H: srcH, C: 3, Seed: 23,
	})
	if err != nil {
		return nil, nil, err
	}
	var sScores, fScores []float64
	for i := 0; i < 40; i++ {
		img := holdout.Image(i)
		v, err := decamouflage.ScoreScaling(scaler, decamouflage.MSE, img)
		if err != nil {
			return nil, nil, err
		}
		sScores = append(sScores, v)
		v, err = decamouflage.ScoreFiltering(2, decamouflage.SSIM, img)
		if err != nil {
			return nil, nil, err
		}
		fScores = append(fScores, v)
	}
	sTh, err := decamouflage.CalibrateBlackBox(sScores, 1, decamouflage.MSE)
	if err != nil {
		return nil, nil, err
	}
	fTh, err := decamouflage.CalibrateBlackBox(fScores, 1, decamouflage.SSIM)
	if err != nil {
		return nil, nil, err
	}
	ens, err := decamouflage.NewEnsemble(scaler, sTh, fTh)
	if err != nil {
		return nil, nil, err
	}
	return ens, scaler, nil
}

// main wires the detector behind an HTTP endpoint and exercises it once.
// Its one http.Serve goroutine for the demo listener is reaped by process
// exit at the end of main.
func main() {
	log.SetFlags(0)
	log.SetPrefix("online-service: ")

	ens, scaler, err := buildEnsemble()
	if err != nil {
		log.Fatal(err)
	}
	srv := &server{ensemble: ens}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", srv.check)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpServer := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpServer.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("listening on %s/v1/check\n", base)

	// Self-exercise: one benign, one attack.
	covers, err := dataset.NewGenerator(dataset.Config{
		Corpus: dataset.CaltechLike, W: srcW, H: srcH, C: 3, Seed: 29,
	})
	if err != nil {
		log.Fatal(err)
	}
	targets, err := dataset.NewGenerator(dataset.Config{
		Corpus: dataset.CaltechLike, W: dstW, H: dstH, C: 3, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}
	benign := covers.Image(0)
	res, err := decamouflage.CraftAttack(benign, targets.Image(0), scaler, 2)
	if err != nil {
		log.Fatal(err)
	}
	for name, img := range map[string]*decamouflage.Image{
		"benign": benign,
		"attack": res.Attack,
	} {
		var buf bytes.Buffer
		if err := png.Encode(&buf, img.ToNRGBA()); err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/check", "image/png", &buf)
		if err != nil {
			log.Fatal(err)
		}
		var v verdictResponse
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("%-6s -> attack=%v votes=%d/%d csp=%.0f elapsed=%.1fms\n",
			name, v.Attack, v.Votes, v.Methods, v.CSP, v.ElapsedMS)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
}
