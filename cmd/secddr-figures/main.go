// Command secddr-figures regenerates the paper's evaluation figures:
// Fig. 6 (overall performance), Fig. 7 (metadata-cache behaviour), Fig. 8
// (arity/packing sensitivity), Fig. 10 (InvisiMem, AES-XTS), and Fig. 12
// (InvisiMem, counter mode).
//
// Figures run on the internal/harness campaign runner; pass -store to
// cache simulation points on disk so re-runs (and overlapping figures,
// which share the TDX baseline points) skip work already done.
//
// Usage:
//
//	secddr-figures -fig 6                  # full 29-workload run
//	secddr-figures -fig all -quick         # smoke-scale everything
//	secddr-figures -fig 10 -workloads mcf,lbm,pr
//	secddr-figures -fig all -store figs.store   # resumable
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"secddr/internal/experiments"
	"secddr/internal/obs"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "secddr-figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 10, 12, or all")
		quick     = flag.Bool("quick", false, "smoke scale (fast, noisier)")
		instr     = flag.Uint64("instr", 0, "override measured instructions per core")
		warmup    = flag.Uint64("warmup", 0, "override warmup instructions per core")
		workloads = flag.String("workloads", "", "comma-separated workload subset")
		workers   = flag.Int("workers", 0, "parallel simulations (default NumCPU-1)")
		fidelity  = flag.String("fidelity", "", `execution fidelity: "exact" (cycle-accurate, figure-quality; the default) or "sampled" (interval sampling; normalized values print with ±95% CI)`)
		ciTarget  = flag.Float64("ci-target", 0, "sampled fidelity: stop each point early once IPC and bandwidth 95% CIs shrink below this fraction of their means; alone it selects -fidelity sampled")
		storeDir  = flag.String("store", "", "result store directory shared across figures and with secddr-sweep (empty disables caching)")
		version   = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version("secddr-figures"))
		return nil
	}

	scale := experiments.DefaultScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *instr > 0 {
		scale.InstrPerCore = *instr
	}
	if *warmup > 0 {
		scale.WarmupInstr = *warmup
	}
	if *workloads != "" {
		scale.Workloads = strings.Split(*workloads, ",")
	}
	fid, err := sim.ParseFidelity(*fidelity, *ciTarget)
	if err != nil {
		return err
	}
	scale.Fidelity = fid
	scale.Workers = *workers
	if *storeDir != "" {
		store, err := resultstore.Open(*storeDir, resultstore.Options{})
		if err != nil {
			return err
		}
		defer store.Close()
		scale.Store = store
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if *fig == "ablations" {
		return runAblations(scale)
	}

	if want("6") {
		res, err := experiments.Fig6(scale)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		fmt.Println()
	}
	if want("7") {
		rows, err := experiments.Fig7(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig7(rows))
		fmt.Println()
	}
	if want("8") {
		bars, err := experiments.Fig8(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig8(bars))
		fmt.Println()
	}
	if want("10") {
		res, err := experiments.Fig10(scale)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		fmt.Println()
	}
	if want("12") {
		res, err := experiments.Fig12(scale)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		fmt.Println()
	}
	return nil
}

// runAblations executes the design-choice studies DESIGN.md calls out:
// protected-capacity scaling, the eWCRC burst cost, metadata-cache sizing,
// crypto-latency sensitivity, DDR5 burst economics, channel scaling, and
// the scenario mix (the built-in scenario library under tree vs SecDDR).
func runAblations(scale experiments.Scale) error {
	caps, err := experiments.AblationFootprintScaling(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation("Ablation: protected working-set scaling (tree walks degrade, SecDDR flat)", caps))
	fmt.Println()

	ew, err := experiments.AblationEWCRC(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation("Ablation: eWCRC write-burst extension (SecDDR+XTS)", ew))
	fmt.Println()

	mc, err := experiments.AblationMetadataCache(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation("Ablation: metadata cache size (64-ary tree)", mc))
	fmt.Println()

	cl, err := experiments.AblationCryptoLatency(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation("Ablation: crypto engine latency", cl))
	fmt.Println()

	d5, err := experiments.AblationDDR5EWCRC(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation("Ablation: eWCRC penalty, DDR4 (8->10 beats) vs DDR5 (16->18)", d5))
	fmt.Println()

	chs, err := experiments.AblationChannelScaling(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation("Ablation: DDR4 channel scaling (per-channel-count baseline)", chs))
	fmt.Println()

	mix, err := experiments.AblationScenarioMix(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation("Ablation: scenario mix (phase-switching / heterogeneous / attacker workloads)", mix))
	return nil
}
