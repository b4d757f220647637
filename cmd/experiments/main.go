// Command experiments regenerates the paper's tables and figures (and this
// reproduction's extension experiments) on synthetic corpora.
//
// Usage:
//
//	experiments -list
//	experiments                          # run everything at default scale
//	experiments -run T2,T8 -n 1000       # paper-scale specific experiments
//	experiments -csv out/csv -artifacts out/art
//	experiments -run T2 -metrics-out results/metrics_t2.json
//	experiments -cpuprofile cpu.out -httpdebug localhost:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"decamouflage/internal/cliutil"
	"decamouflage/internal/experiments"
	"decamouflage/internal/obs"
	"decamouflage/internal/scaling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		runIDs    = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		n         = fs.Int("n", 100, "corpus size per class (paper scale: 1000)")
		src       = fs.String("src", "128x128", "source image geometry WxH")
		dst       = fs.String("dst", "32x32", "model input geometry WxH")
		alg       = fs.String("alg", "bilinear", "scaling algorithm under attack (nearest|bilinear|bicubic|lanczos|area)")
		eps       = fs.Float64("eps", 2, "attack L-inf budget")
		seed      = fs.Int64("seed", 1, "corpus seed")
		csvDir    = fs.String("csv", "", "directory for CSV series (figures)")
		artifacts = fs.String("artifacts", "", "directory for PNG artifacts")

		metricsOut = fs.String("metrics-out", "", `dump per-experiment metrics on exit to this file ("-" for stdout)`)
		metricsFmt = fs.String("metrics-format", "", "metrics dump format: json (default) or prom")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		httpDebug  = fs.String("httpdebug", "", "serve /healthz, /metrics, /debug/events and /debug/pprof on this address")

		eventsOut = fs.String("events-out", "", `dump flight-recorder events as NDJSON on exit ("-" for stdout)`)
		eventsBuf = fs.Int("events-buffer", 0, "flight-recorder ring capacity (implies recording; default 1024)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	srcW, srcH, err := cliutil.ParseSize(*src)
	if err != nil {
		return err
	}
	dstW, dstH, err := cliutil.ParseSize(*dst)
	if err != nil {
		return err
	}
	algorithm, err := scaling.ParseAlgorithm(*alg)
	if err != nil {
		return err
	}

	settings := obs.Settings{
		MetricsOut:    *metricsOut,
		MetricsFormat: *metricsFmt,
		CPUProfile:    *cpuProfile,
		MemProfile:    *memProfile,
		DebugAddr:     *httpDebug,
		EventsOut:     *eventsOut,
		EventBuffer:   *eventsBuf,
	}
	sess, err := settings.Apply()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	if addr := sess.DebugAddr(); addr != "" {
		fmt.Fprintln(os.Stderr, "experiments: debug server on http://"+addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := experiments.NewRunner(experiments.Config{
		N:    *n,
		SrcW: srcW, SrcH: srcH, DstW: dstW, DstH: dstH,
		Algorithm:    algorithm,
		Eps:          *eps,
		Seed:         *seed,
		Out:          os.Stdout,
		CSVDir:       *csvDir,
		ArtifactsDir: *artifacts,
	})
	var ids []string
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	return r.Run(ctx, ids...)
}
