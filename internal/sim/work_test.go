package sim

import (
	"testing"

	"secddr/internal/config"
)

// TestSchedulerWorkCounters pins the memory controllers' host work per
// issued DRAM command on one fixed point per Fig. 6 mode: mcf on the
// 4-core Table 1 platform, 20k warmup and 40k measured instructions per
// core, seed 42, event-driven. Over the measured region it sums, across
// channels, the timing checks (dram.Channel.Checks), the scheduler scans
// (memctrl.Controller.Scans) and the issued commands. The counts are
// deterministic, so they hold on any host. Each bound is the value
// measured when it was last set plus a 5% margin; a change that lowers a
// count lowers its recorded value in the same commit.
func TestSchedulerWorkCounters(t *testing.T) {
	const margin = 1.05
	for _, tc := range []struct {
		mode          config.Mode
		checks, scans float64 // per issued command, as last measured
	}{
		{config.ModeIntegrityTree, 9.53, 1.47},
		{config.ModeSecDDRCTR, 6.42, 1.38},
		{config.ModeEncryptOnlyCTR, 6.19, 1.36},
		{config.ModeSecDDRXTS, 4.35, 1.25},
		{config.ModeEncryptOnlyXTS, 4.31, 1.24},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			opt := tinyOpt(tc.mode, "mcf")
			opt.InstrPerCore, opt.WarmupInstr = 40_000, 20_000
			s, err := warmSystem(opt, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.resume(opt, s.engine, nil); err != nil {
				t.Fatal(err)
			}
			work := func() (checks, scans, cmds uint64) {
				for _, ctl := range s.engine.Controllers() {
					ch := ctl.Channel()
					checks += ch.Checks
					scans += ctl.Scans
					cmds += ch.NumACT + ch.NumPRE + ch.NumRD + ch.NumWR + ch.NumREF
				}
				return
			}
			checks0, scans0, cmds0 := work()
			if err := s.runMeasured(); err != nil {
				t.Fatal(err)
			}
			checks, scans, cmds := work()
			checks, scans, cmds = checks-checks0, scans-scans0, cmds-cmds0
			if cmds < 10_000 {
				t.Fatalf("only %d DRAM commands in the measured region; the point exercises too little", cmds)
			}
			perCmd := func(n uint64) float64 { return float64(n) / float64(cmds) }
			t.Logf("%d commands: %.2f checks and %.2f scans per command", cmds, perCmd(checks), perCmd(scans))
			if got, bound := perCmd(checks), tc.checks*margin; got > bound {
				t.Errorf("%.2f timing checks per DRAM command, bound %.2f", got, bound)
			}
			if got, bound := perCmd(scans), tc.scans*margin; got > bound {
				t.Errorf("%.2f scheduler scans per DRAM command, bound %.2f", got, bound)
			}
		})
	}
}
